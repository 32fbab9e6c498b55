package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestConcurrentRecorder hammers one trace from many goroutines —
// starting spans, mutating attrs/counters, backdating, snapshotting
// mid-flight — the way a batch request fans its lines across the worker
// pool while /debug/traces readers snapshot concurrently. Run under
// -race (the CI test job always does) this is the recorder's data-race
// proof; under plain `go test` it still checks the arena bound and
// tree integrity at the end.
func TestConcurrentRecorder(t *testing.T) {
	const (
		goroutines = 16
		perG       = 200
	)
	tr := NewWithCapacity(ID{}, SpanRequest, 64) // force drop contention too
	ctx := NewContext(context.Background(), tr)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				cctx, sp := Start(ctx, SpanCheck)
				sp.SetAttr("kind", "pair")
				sp.SetCounter("nodes", int64(i))
				_, child := Start(cctx, SpanMaxflow)
				child.SetCounter("augmentations", 1)
				child.End()
				Record(cctx, SpanQueueWait, time.Now().Add(-time.Microsecond))
				sp.End()
				if i%32 == 0 {
					_ = tr.Snapshot() // concurrent reader
				}
			}
		}(g)
	}
	wg.Wait()
	tr.Root().End()

	snap := tr.Snapshot()
	total := countNodes(snap.Root)
	if total > 64 {
		t.Fatalf("arena leaked: %d spans recorded, cap 64", total)
	}
	if total+snap.Dropped != 1+goroutines*perG*3 {
		t.Fatalf("recorded %d + dropped %d != attempted %d",
			total, snap.Dropped, 1+goroutines*perG*3)
	}
}

func countNodes(n *Node) int {
	total := 1
	for _, c := range n.Children {
		total += countNodes(c)
	}
	return total
}
