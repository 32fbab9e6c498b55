package main

import (
	"fmt"
	"io"
	"sort"

	"bagconsistency/internal/load"
	"bagconsistency/pkg/bagclient"
	"bagconsistency/pkg/bagconsist"
)

// workloadTopScrape bounds the sketch rows pulled from /debug/workload
// into the report; the agreement check needs far fewer, and an
// unbounded scrape of a k=256 sketch would bloat every ledger entry.
const workloadTopScrape = 32

// workloadAgreementK is the K of the top-K set-agreement check: the
// sketch's K hottest keys versus the schedule's K most-sent
// fingerprints.
const workloadAgreementK = 5

// clientKeyLimit bounds the exact client-side table embedded in the
// report. Counts are computed over every fingerprint; only the
// rendering is truncated.
const clientKeyLimit = 32

// buildWorkloadReport cross-checks the server's hot-key sketch against
// the exact per-fingerprint counts the driver knows it sent. Returns
// nil when the target did not serve a workload section (telemetry off
// or an older daemon).
func buildWorkloadReport(ws *bagclient.WorkloadStatus, corpus []load.Item, events []load.Event, results []fireResult) *WorkloadReport {
	if ws == nil || ws.Workload == nil {
		return nil
	}
	counts := clientKeyCounts(corpus, events, results)
	wr := &WorkloadReport{Server: &ServerWorkload{WorkloadStatus: *ws}, ClientTopK: counts}
	wr.AgreementK, wr.TopKAgreement = topKAgreement(ws, counts, workloadAgreementK)
	if len(wr.ClientTopK) > clientKeyLimit {
		wr.ClientTopK = wr.ClientTopK[:clientKeyLimit]
	}
	return wr
}

// clientKeyCounts replays the schedule against the corpus fingerprints:
// results[i] is the outcome of events[i], and every event maps to the
// same canonical fingerprints the server's hot-key sketch records —
// FingerprintPair for pair checks (which the server fingerprints
// outside the cache), FingerprintCollection for global checks and each
// batch line. The returned table is exact and sorted
// hottest first (ties broken by key for determinism).
func clientKeyCounts(corpus []load.Item, events []load.Event, results []fireResult) []ClientKeyCount {
	globalFP := make([]string, len(corpus))
	pairFP := make([]string, len(corpus))
	byKey := map[string]*ClientKeyCount{}
	count := func(fp string) *ClientKeyCount {
		c := byKey[fp]
		if c == nil {
			c = &ClientKeyCount{Key: fp}
			byKey[fp] = c
		}
		return c
	}
	globalKey := func(item int) (string, bool) {
		if globalFP[item] == "" {
			fp, err := bagconsist.FingerprintCollection(corpus[item].Collection)
			if err != nil {
				return "", false
			}
			globalFP[item] = fp
		}
		return globalFP[item], true
	}

	for i, e := range events {
		r := results[i]
		switch e.Class {
		case load.ClassPair:
			item := e.Items[0]
			if pairFP[item] == "" {
				fp, err := bagconsist.FingerprintPair(corpus[item].R, corpus[item].S)
				if err != nil {
					continue
				}
				pairFP[item] = fp
			}
			c := count(pairFP[item])
			c.Sent++
			switch r.outcome {
			case outcomeOK:
				c.OK++
			case outcomeShed:
				c.Shed++
			}
		case load.ClassBatch:
			// Each batch line is its own server-side check under the
			// line's collection fingerprint. Per-line outcomes are not
			// attributable from the aggregate lineErrs count, so OK is
			// only credited when the whole batch came back clean.
			clean := r.outcome == outcomeOK && r.lineErrs == 0
			for _, item := range e.Items {
				fp, ok := globalKey(item)
				if !ok {
					continue
				}
				c := count(fp)
				c.Sent++
				if clean {
					c.OK++
				}
			}
		default: // global
			fp, ok := globalKey(e.Items[0])
			if !ok {
				continue
			}
			c := count(fp)
			c.Sent++
			switch r.outcome {
			case outcomeOK:
				c.OK++
			case outcomeShed:
				c.Shed++
			}
		}
	}

	out := make([]ClientKeyCount, 0, len(byKey))
	for _, c := range byKey {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sent != out[j].Sent {
			return out[i].Sent > out[j].Sent
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// topKAgreement is |top-K(sketch) ∩ top-K(client)| / K with
// K = min(k, both table sizes). The sketch's ordering may disagree
// inside the set (SpaceSaving overestimates), so set overlap — not rank
// correlation — is the property the sketch actually guarantees.
func topKAgreement(ws *bagclient.WorkloadStatus, counts []ClientKeyCount, k int) (int, float64) {
	if len(ws.Workload.TopK) < k {
		k = len(ws.Workload.TopK)
	}
	if len(counts) < k {
		k = len(counts)
	}
	if k == 0 {
		return 0, 0
	}
	sketch := map[string]bool{}
	for _, hk := range ws.Workload.TopK[:k] {
		sketch[hk.Key] = true
	}
	hits := 0
	for _, c := range counts[:k] {
		if sketch[c.Key] {
			hits++
		}
	}
	return k, float64(hits) / float64(k)
}

// writeWorkloadSection renders the hot-key cross-check in the human
// table.
func writeWorkloadSection(w io.Writer, wr *WorkloadReport) {
	if wr == nil {
		return
	}
	fmt.Fprintf(w, "\nworkload: top-%d agreement %.0f%% (sketch vs exact client counts)\n",
		wr.AgreementK, 100*wr.TopKAgreement)
	if srv := wr.Server; srv != nil && srv.Workload != nil {
		sn := srv.Workload
		fmt.Fprintf(w, "  sketch: k=%d tracked=%d stream=%d\n", sn.K, sn.Tracked, sn.Stream)
		clientSent := map[string]int{}
		for _, c := range wr.ClientTopK {
			clientSent[c.Key] = c.Sent
		}
		limit := min(len(sn.TopK), workloadAgreementK)
		fmt.Fprintf(w, "  %-16s %10s %6s %10s %8s %8s %8s\n",
			"key", "count", "±err", "client", "hits", "misses", "sheds")
		for _, hk := range sn.TopK[:limit] {
			fmt.Fprintf(w, "  %-16s %10d %6d %10d %8d %8d %8d\n",
				shortKey(hk.Key), hk.Count, hk.ErrBound, clientSent[hk.Key],
				hk.Hits, hk.Misses, hk.Sheds)
		}
	}
}

// shortKey abbreviates a 64-hex fingerprint for table rendering.
func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12] + "…"
	}
	return k
}
