package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"bagconsistency/internal/bagio"
	"bagconsistency/internal/core"
	"bagconsistency/pkg/bagconsist"
)

// verdict is the off-clock check of one phase's responses.
type verdict struct {
	bad       map[int]bool // indices of the failed samples
	reasons   map[string]int
	example   string // one failure, for the log
	respBytes int64
	// phaseSelfNs sums, per daemon span name, the self time reported in
	// Report.Phases of the traced requests; phaseReqs counts them.
	phaseSelfNs map[string]float64
	phaseReqs   int
}

// checkPhase checks every response of a phase against its request: the
// status must be 200, the verdict must equal the truth known by
// construction, and every YES to a global check must carry a witness that
// marginalizes onto the request's own bags, decoded from the exact body
// that was sent.
func checkPhase(in *inputs, seq []request, res *phaseResult) *verdict {
	byBody := make(map[int32][]int)
	for i, s := range res.samples {
		r := seq[int(s.seq)%len(seq)]
		byBody[r.body] = append(byBody[r.body], i)
	}
	v := newVerdict()
	var mu sync.Mutex
	work := make(chan int32)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := newVerdict()
			for b := range work {
				checkBody(in, seq, res, b, byBody[b], local)
			}
			mu.Lock()
			v.merge(local)
			mu.Unlock()
		}()
	}
	for b := range byBody {
		work <- b
	}
	close(work)
	wg.Wait()
	return v
}

func newVerdict() *verdict {
	return &verdict{bad: map[int]bool{}, reasons: map[string]int{}, phaseSelfNs: map[string]float64{}}
}

// failed is the number of samples that failed the check.
func (v *verdict) failed() int { return len(v.bad) }

func (v *verdict) merge(o *verdict) {
	for i := range o.bad {
		v.bad[i] = true
	}
	for k, n := range o.reasons {
		v.reasons[k] += n
	}
	if v.example == "" {
		v.example = o.example
	}
	v.respBytes += o.respBytes
	for k, ns := range o.phaseSelfNs {
		v.phaseSelfNs[k] += ns
	}
	v.phaseReqs += o.phaseReqs
}

func (v *verdict) fail(i int, reason string, seq int32, detail string) {
	v.bad[i] = true
	v.reasons[reason]++
	if v.example == "" {
		v.example = fmt.Sprintf("request %d: %s: %s", seq, reason, detail)
	}
}

// checkBody checks every sample sent with body b.
func checkBody(in *inputs, seq []request, res *phaseResult, b int32, idxs []int, v *verdict) {
	r := seq[int(res.samples[idxs[0]].seq)%len(seq)]
	it := in.items[r.item]
	var coll *core.Collection
	decodeErr := ""
	if !it.pair {
		_, bags, err := bagio.DecodeAny(bytes.NewReader(in.bodies[b]))
		if err == nil {
			coll, err = bagio.ToCollection(bags)
		}
		if err != nil {
			decodeErr = err.Error()
		}
	}
	for _, i := range idxs {
		s := res.samples[i]
		v.respBytes += int64(len(s.resp))
		if s.status == 0 {
			v.fail(i, "transport", s.seq, "no response")
			continue
		}
		if s.status != 200 {
			v.fail(i, fmt.Sprintf("status-%d", s.status), s.seq, string(s.resp))
			continue
		}
		var rep bagconsist.Report
		if err := json.Unmarshal(s.resp, &rep); err != nil {
			v.fail(i, "bad-json", s.seq, err.Error())
			continue
		}
		if s.traced {
			v.phaseReqs++
			for _, p := range rep.Phases {
				addSelf(p, v.phaseSelfNs)
			}
		}
		if rep.Consistent != it.consistent {
			v.fail(i, "wrong-verdict", s.seq, fmt.Sprintf("got consistent=%t", rep.Consistent))
			continue
		}
		if it.pair || !rep.Consistent {
			continue
		}
		if decodeErr != "" {
			v.fail(i, "undecodable-request", s.seq, decodeErr)
			continue
		}
		w, err := rep.WitnessBag()
		if err != nil || w == nil {
			v.fail(i, "missing-witness", s.seq, fmt.Sprint(err))
			continue
		}
		if ok, err := coll.VerifyWitness(w); err != nil || !ok {
			v.fail(i, "bad-witness", s.seq, fmt.Sprint(err))
		}
	}
}

// addSelf adds each span's self time (its duration minus its children's)
// to the per-name sums.
func addSelf(p bagconsist.PhaseSpan, into map[string]float64) {
	self := p.DurationNs
	for _, c := range p.Children {
		self -= c.DurationNs
		addSelf(c, into)
	}
	into[p.Name] += float64(max(self, 0))
}
