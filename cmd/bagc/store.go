package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"sort"

	"bagconsistency/internal/store"
)

// storeKindName renders the on-disk kind byte for operators. pkg/bagconsist
// writes kind 2 (global) only; kind 1 (pair) records come from earlier
// releases, which also cached pair checks, and are no longer read.
func storeKindName(k uint8) string {
	switch k {
	case 1:
		return "pair"
	case 2:
		return "global"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// runStore dispatches the store maintenance subcommands. They operate on
// a bagcd -data-dir; inspect and verify take a shared lock (read-only),
// compact takes exclusive ownership — a live daemon must be stopped
// first, and each command says so when it finds the directory locked.
func runStore(args []string, out io.Writer) error {
	if len(args) < 1 {
		return errors.New("usage: bagc store <inspect|verify|compact> <dir>")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("bagc store "+sub, flag.ContinueOnError)
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: bagc store %s <dir>", sub)
	}
	dir := fs.Arg(0)
	switch sub {
	case "inspect":
		return storeInspect(out, dir)
	case "verify":
		return storeVerify(out, dir)
	case "compact":
		return storeCompact(out, dir)
	default:
		return fmt.Errorf("unknown store subcommand %q (want inspect, verify, or compact)", sub)
	}
}

// storeInspect prints an operator summary: occupancy, garbage share,
// per-kind record counts.
func storeInspect(out io.Writer, dir string) error {
	v, err := store.Verify(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "store:      %s\n", dir)
	fmt.Fprintf(out, "segments:   %d\n", v.Segments)
	fmt.Fprintf(out, "records:    %d (%d live, %d superseded)\n", v.Records, v.Live, v.Superseded)
	fmt.Fprintf(out, "bytes:      %d (%d live)\n", v.Bytes, v.LiveBytes)
	var kinds []uint8
	for k := range v.Kinds {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(out, "  kind %s: %d live record(s)\n", storeKindName(k), v.Kinds[k])
	}
	fmt.Fprintf(out, "corrupt:    %d\n", v.Corrupt)
	fmt.Fprintf(out, "torn tail:  %v\n", v.TornTail)
	if v.Superseded > 0 || v.Corrupt > 0 || v.TornTail {
		fmt.Fprintln(out, "hint: `bagc store compact` reclaims superseded/corrupt records (torn tails heal on the next open)")
	}
	return nil
}

// storeVerify integrity-scans the log and fails (nonzero exit through
// main's error path) if any record is corrupt.
func storeVerify(out io.Writer, dir string) error {
	v, err := store.Verify(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "segments=%d records=%d live=%d superseded=%d corrupt=%d torn_tail=%v\n",
		v.Segments, v.Records, v.Live, v.Superseded, v.Corrupt, v.TornTail)
	if v.Corrupt > 0 {
		return fmt.Errorf("store has %d corrupt record(s); run `bagc store compact` to drop them", v.Corrupt)
	}
	if v.TornTail {
		fmt.Fprintln(out, "note: torn tail detected (crash mid-append); it is truncated automatically on the next open")
	}
	fmt.Fprintln(out, "ok")
	return nil
}

// storeCompact opens the store (healing any torn tail), rewrites it with
// only live records, and reports the reclaim.
func storeCompact(out io.Writer, dir string) error {
	s, err := store.Open(dir, store.Options{
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	res, cerr := s.Compact()
	if err := s.Close(); cerr == nil {
		cerr = err
	}
	if cerr != nil {
		return cerr
	}
	fmt.Fprintf(out, "compacted: %d live record(s) kept, %d superseded + %d corrupt dropped\n",
		res.LiveRecords, res.DroppedSuperseded, res.DroppedCorrupt)
	fmt.Fprintf(out, "segments:  %d -> %d\n", res.SegmentsBefore, res.SegmentsAfter)
	fmt.Fprintf(out, "bytes:     %d -> %d\n", res.BytesBefore, res.BytesAfter)
	return nil
}
