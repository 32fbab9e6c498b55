package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"bagconsistency/internal/bagio"
	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/ilp"
)

// cyclic-fresh draws its instances from fixed master pools, one per
// family. Master instance m of a family comes from its own generator
// seeded by (family, m), whatever the run's seed; the run's seed only
// picks which master instances are sent, and in which order.
//
// Both families are heavy-tailed: a few instances in a hundred need
// thousands of times the median's search, and one alone can take
// seconds. cyclic_rejected.txt lists every master instance whose
// sequential exact search needed more than cyclicNodeCap nodes at the
// commit that introduced the benchmark, and a run never sends those. The
// list is committed data, not a decision made at run time, so every
// commit is sent the same bodies for a seed: an engine change that makes
// the search slower or faster shows as such instead of changing which
// instances are sent.

// cyclicNodeCap is the search-node bound of cyclic_rejected.txt.
const cyclicNodeCap = 3000

// cyclicFamily is one master pool of cyclic-fresh.
type cyclicFamily struct {
	name string
	salt int64
	pool int // master instances 0 .. pool-1
	make func(rng *rand.Rand) (*core.Collection, error)
}

var cyclicFamilies = []cyclicFamily{
	{
		// 3DCT triangles: the margins of a random 5×5×5 table with cells
		// in [0, 2], the reduction family behind NP-hardness.
		name: "triangle", salt: 1, pool: 100_000,
		make: func(rng *rand.Rand) (*core.Collection, error) {
			t, err := gen.RandomThreeDCT(rng, 5, 2)
			if err != nil {
				return nil, err
			}
			return t.ToCollection()
		},
	},
	{
		// Near-acyclic schemas: a 6-edge path plus 2 chords, marginals
		// of a random global bag of support 32 over a domain of 32 values.
		name: "near-acyclic", salt: 2, pool: 50_000,
		make: func(rng *rand.Rand) (*core.Collection, error) {
			h, err := gen.NearAcyclicHypergraph(6, 2)
			if err != nil {
				return nil, err
			}
			c, _, err := gen.RandomConsistent(rng, h, 32, 3, 32)
			return c, err
		},
	},
}

func (f cyclicFamily) instance(m int) (*core.Collection, error) {
	return f.make(rand.New(rand.NewSource(f.salt*1_000_003 + int64(m))))
}

// cyclicSlot maps position i of a run's sequence to its family and its
// rank k among that family's positions: of every ten positions the first
// seven are triangles and the last three near-acyclic.
func cyclicSlot(i int) (family, k int) {
	if r := i % 10; r < 7 {
		return 0, i/10*7 + r
	}
	return 1, i/10*3 + i%10 - 7
}

//go:embed cyclic_rejected.txt
var cyclicRejectedText string

// parseRejected reads cyclic_rejected.txt: lines starting with # are
// comments; every other line is a family name followed by the gaps
// between its successive rejected master indices, the first gap counted
// from 0.
func parseRejected(text string) (map[string][]int, error) {
	out := map[string][]int{}
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		idx, cur := []int{}, 0
		for j, g := range fields[1:] {
			gap, err := strconv.Atoi(g)
			if err != nil || gap < 0 || (j > 0 && gap == 0) {
				return nil, fmt.Errorf("cyclic_rejected.txt: family %s: bad gap %q", fields[0], g)
			}
			cur += gap
			idx = append(idx, cur)
		}
		out[fields[0]] = idx
	}
	return out, nil
}

// buildCyclicFresh generates global checks over cyclic schemas, sent as
// JSON: seven triangles and three near-acyclic instances in every ten,
// drawn from the master pools without repeats. Positions 4 and 9 of every
// ten (one of each family) get one multiplicity bumped and must answer
// NO.
func buildCyclicFresh(seed int64, seconds int) (*inputs, error) {
	rejected, err := parseRejected(cyclicRejectedText)
	if err != nil {
		return nil, err
	}
	// picks[f][k] is the master instance at family f's k-th position. The
	// warm-up's picks come from a shuffle that is the same for every seed,
	// and the timed phase's from a seeded shuffle of the rest.
	warm := make([]int, len(cyclicFamilies))
	for i := range warmCyclic {
		f, _ := cyclicSlot(i)
		warm[f]++
	}
	picks := make([][]int, len(cyclicFamilies))
	for fi, f := range cyclicFamilies {
		skip := map[int]bool{}
		for _, m := range rejected[f.name] {
			skip[m] = true
		}
		for m := range f.pool {
			if !skip[m] {
				picks[fi] = append(picks[fi], m)
			}
		}
		p := picks[fi]
		shuffle := func(p []int, seed int64) {
			rand.New(rand.NewSource(seed)).Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
		}
		shuffle(p, warmSeed*1_000_003+f.salt)
		shuffle(p[warm[fi]:], seed*1_000_003+f.salt)
	}
	// No master instance is sent twice in a run, so the pools bound the
	// sequence; a run that reaches the bound ends its timed phase early.
	total := cyclicPerSecond*seconds + warmCyclic
	for i := range total {
		if f, k := cyclicSlot(i); k >= len(picks[f]) {
			total = i
			break
		}
	}
	return buildFresh(seed, warmCyclic, total-warmCyclic, pathGlobal, ctypeJSON, func(i int, rng *rand.Rand) (freshInstance, error) {
		f, k := cyclicSlot(i)
		coll, err := cyclicFamilies[f].instance(picks[f][k])
		if err != nil {
			return freshInstance{}, err
		}
		inst := freshInstance{consistent: true}
		if i%5 == 4 {
			if coll, err = gen.Perturb(rng, coll); err != nil {
				return freshInstance{}, err
			}
			inst.consistent = false
		}
		arr, err := bagio.ToJSONBags(namedBags(coll))
		if err != nil {
			return freshInstance{}, err
		}
		if inst.body, err = json.Marshal(arr); err != nil {
			return freshInstance{}, err
		}
		return inst, nil
	})
}

const rejectedHeader = `# Master instances of perfbench's cyclic-fresh families whose sequential
# exact search needed more than %d nodes; a run never sends them. One line
# per family: its name, then the gaps between successive rejected indices
# (the first counted from 0). Measured once, with
#   bash perfbench/run.sh -vet-cyclic perfbench/cyclic_rejected.txt
# Rewrite it only together with the family definitions in cyclic.go: a
# list rewritten by a changed engine would send that engine other bodies.
`

// vetCyclic runs the sequential exact search, bagcd's default, on every
// master instance and writes the ones needing more than cyclicNodeCap
// nodes to path in the format parseRejected reads.
func vetCyclic(path string) error {
	var out strings.Builder
	fmt.Fprintf(&out, rejectedHeader, cyclicNodeCap)
	for _, f := range cyclicFamilies {
		bad := make([]bool, f.pool)
		errs := make([]error, runtime.GOMAXPROCS(0))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for m := int(next.Add(1) - 1); m < f.pool; m = int(next.Add(1) - 1) {
					coll, err := f.instance(m)
					if err == nil {
						_, err = coll.GloballyConsistent(core.GlobalOptions{MaxNodes: cyclicNodeCap})
					}
					if errors.Is(err, ilp.ErrNodeLimit) {
						bad[m] = true
					} else if err != nil {
						errs[w] = fmt.Errorf("%s instance %d: %w", f.name, m, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
		out.WriteString(f.name)
		prev, n := 0, 0
		for m, b := range bad {
			if b {
				fmt.Fprintf(&out, " %d", m-prev)
				prev = m
				n++
			}
		}
		out.WriteString("\n")
		fmt.Printf("%s: %d of %d master instances need more than %d nodes\n", f.name, n, f.pool, cyclicNodeCap)
	}
	return os.WriteFile(path, []byte(out.String()), 0o644)
}
