// Command persistence walks the two-tier cache end to end: open a
// persistent store, compute NP-hard results into it, close it, then
// "restart" (the store reopened under a brand-new Checker with an empty
// RAM tier) and watch the same instances — including a value-renamed
// variant — come back from disk with zero engine recomputation, as the
// disk tier's counters show.
//
// Run with:
//
//	go run ./examples/persistence
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"bagconsistency/internal/gen"
	"bagconsistency/pkg/bagconsist"
)

func main() {
	dir, err := os.MkdirTemp("", "bagstore-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()

	// A cyclic-schema instance: deciding it runs the exact integer
	// search (NP-complete per Theorem 4), so this is the result most
	// worth keeping.
	rng := rand.New(rand.NewSource(42))
	inst, err := gen.RandomThreeDCT(rng, 4, 3)
	if err != nil {
		log.Fatal(err)
	}
	coll, err := inst.ToCollection()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== process 1: compute and persist (data dir %s)\n", dir)
	st, err := bagconsist.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	first := bagconsist.New(bagconsist.WithStore(st), bagconsist.WithMaxNodes(50_000_000))
	t0 := time.Now()
	rep, err := first.CheckGlobal(ctx, coll)
	if err != nil {
		log.Fatal(err)
	}
	coldElapsed := time.Since(t0)
	fmt.Printf("   cold: consistent=%v method=%s nodes=%d in %v\n",
		rep.Consistent, rep.Method, rep.Nodes, coldElapsed.Round(time.Microsecond))
	if ss, ok := first.StoreStats(); ok {
		fmt.Printf("   store after write-through: %d record(s), %d bytes on disk\n",
			ss.Records, ss.DiskBytes)
	}
	// Shutdown: whoever opened the store closes it, which syncs the log
	// and releases the directory lock.
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== process 2: warm start on the same directory")
	st, err = bagconsist.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	second := bagconsist.New(bagconsist.WithStore(st), bagconsist.WithMaxNodes(50_000_000))
	t1 := time.Now()
	rep2, err := second.CheckGlobal(ctx, coll)
	if err != nil {
		log.Fatal(err)
	}
	warmElapsed := time.Since(t1)
	fmt.Printf("   warm: cache_hit=%v (same nodes=%d reported) in %v — %.0fx faster\n",
		rep2.CacheHit, rep2.Nodes, warmElapsed.Round(time.Microsecond),
		float64(coldElapsed)/float64(warmElapsed))

	// Content addressing: a consistently value-renamed copy is the same
	// instance up to the paper's symmetries, so it hits the same disk
	// record — with its witness translated into the renamed values.
	renamed, err := renameValues(coll)
	if err != nil {
		log.Fatal(err)
	}
	rep3, err := second.CheckGlobal(ctx, renamed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   renamed variant: cache_hit=%v witness_support=%d (re-expressed in new values)\n",
		rep3.CacheHit, rep3.WitnessSupport)
	if ss, ok := second.StoreStats(); ok {
		fmt.Printf("   disk tier: %d hit(s), %d miss(es), 0 recomputations (puts=%d)\n",
			ss.Hits, ss.Misses, ss.Puts)
	}
}

// renameValues applies a consistent per-attribute bijection v -> v' to
// every bag of the collection.
func renameValues(c *bagconsist.Collection) (*bagconsist.Collection, error) {
	rename := make(map[string]map[string]string)
	bags := make([]*bagconsist.Bag, c.Len())
	for i, b := range c.Bags() {
		attrs := b.Schema().Attrs()
		nb := bagconsist.NewBag(b.Schema())
		err := b.Each(func(tup bagconsist.Tuple, count int64) error {
			vals := tup.Values()
			for j, v := range vals {
				a := attrs[j]
				if rename[a] == nil {
					rename[a] = make(map[string]string)
				}
				nv, ok := rename[a][v]
				if !ok {
					nv = fmt.Sprintf("%s'%d", a, len(rename[a]))
					rename[a][v] = nv
				}
				vals[j] = nv
			}
			return nb.Add(vals, count)
		})
		if err != nil {
			return nil, err
		}
		bags[i] = nb
	}
	return bagconsist.NewCollection(c.Hypergraph(), bags)
}
