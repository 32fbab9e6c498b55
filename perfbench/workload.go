package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/bagio"
	"bagconsistency/internal/core"
	"bagconsistency/internal/gen"
	"bagconsistency/internal/hypergraph"
	"bagconsistency/internal/load"
)

// request is one HTTP request of a workload: an endpoint, a content type
// and the index of its pre-encoded body.
type request struct {
	path  string
	ctype string
	body  int32 // index into inputs.bodies
	item  int32 // index into inputs.items
}

// item is one base instance. Requests over the same item may carry
// different bodies (tuple-permuted or value-renamed variants) but share
// the item's truth.
type item struct {
	pair       bool // /v1/check/pair rather than /v1/check
	consistent bool // the verdict, known by construction
}

// inputs is everything a run sends, generated before any daemon starts.
type inputs struct {
	items  []item
	bodies [][]byte
	warm   []request // sent during set-up, before the timed phase
	timed  []request // the timed sequence, in send order
	// wrap lets the timed phase cycle through timed again when it runs
	// out. Only hot-repeat wraps: its items repeat by design. The fresh
	// workloads end the timed phase early instead, so no instance is
	// ever sent twice.
	wrap bool
}

const (
	ctypeJSON   = "application/json"
	ctypeBagcol = bagio.ContentTypeColumnar
	pathGlobal  = "/v1/check"
	pathPair    = "/v1/check/pair"
)

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	// dataDir runs the daemon with -data-dir (a fresh directory per
	// daemon start).
	dataDir bool
	build   func(seed int64, seconds int) (*inputs, error)
	// refUnits is the work the reference server does per request (see
	// calib.go), in refAnswer calls, sized so that a reference request
	// takes about as long as one of the workload's; refRate is the
	// reference's nominal rate at that size, in answers per second per
	// connection, about the rate on the machine the committed runs come
	// from.
	refUnits int
	refRate  float64
}

var workloads = []workload{
	{
		name:     "hot-repeat",
		why:      "Zipf repeats of ~64 warmed pair/global items, half permuted or renamed: every timed request is a RAM cache hit, so wire, decode, fingerprint and witness translation do the work.",
		build:    buildHotRepeat,
		refUnits: 1,
		refRate:  2000,
	},
	{
		name:     "acyclic-fresh",
		why:      "never-repeated acyclic path/star checks sent as bagcol: the polynomial side (pairwise marginals, max-flow witnesses, minimization) does the work; cache and store only miss and write.",
		dataDir:  true,
		build:    buildAcyclicFresh,
		refUnits: 60,
		refRate:  100,
	},
	{
		name:     "cyclic-fresh",
		why:      "never-repeated cyclic 3DCT triangles and path-plus-chord checks sent as JSON: program build and exact integer search do the work while max flow is idle.",
		dataDir:  true,
		build:    buildCyclicFresh,
		refUnits: 15,
		refRate:  350,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Sizing. Each workload pre-generates a sequence large enough for the
// parent commit's throughput with headroom (<workload>PerSecond ×
// seconds); a fresh workload that exhausts its pool ends the timed phase
// early and says so.
const (
	hotCorpusItems = 32   // × {pair, global} = 64 distinct items
	hotCyclicMaxV  = 4    // 3DCT cell bound of the cyclic items
	hotPerSecond   = 4000 // timed sequence length per second of run
	// hotZipfS is a mild popularity skew: the hottest item draws about a
	// twentieth of the requests, so no single seed-drawn item sets a
	// run's cost.
	hotZipfS         = 0.6
	acyclicPerSecond = 420
	acyclicSupport   = 128
	acyclicDomain    = 10
	acyclicMaxMult   = 8
	cyclicPerSecond  = 1400
)

// Warm-up sizes. Each warm-up takes a few times as long as starting the
// daemon, whose time swings with the machine's other tenants, so the
// launch does not dominate setup_s: set-up takes about 0.3 s on the
// fresh workloads and 0.1 s on hot-repeat at the parent commit.
const (
	hotWarmPasses = 4   // hot-repeat sends every item this many times
	warmAcyclic   = 64  // acyclic-fresh warm-up instances
	warmCyclic    = 256 // cyclic-fresh warm-up instances
)

// buildHotRepeat draws 64 items from the load lab's mixed corpus at its
// default sizes (pair checks, acyclic path/star globals and small 3DCT
// triangles) and a Zipf-popular request sequence over them from its
// schedule generator. A quarter of the global items and a quarter of the
// pair items have one multiplicity bumped (gen.Perturb) and must answer
// NO, so the verdict check covers cached NOs on both endpoints. About
// half the requests carry a fresh variant of their item's body:
// tuple-permuted, or with every value renamed consistently. Each
// variant's bytes are unique, so only canonical fingerprinting, not a
// byte-level shortcut, turns them into cache hits.
func buildHotRepeat(seed int64, seconds int) (*inputs, error) {
	corpus, err := load.BuildCorpus(load.CorpusSpec{
		Seed:        seed,
		Items:       hotCorpusItems,
		AcyclicFrac: -1,
		CyclicMaxV:  hotCyclicMaxV,
	})
	if err != nil {
		return nil, err
	}
	corpus = rankByShape(corpus)
	in := &inputs{wrap: true}
	wire := make([][]bagio.JSONBag, 0, 2*len(corpus))
	bump := rand.New(rand.NewSource(seed ^ 0xbad))
	for c, it := range corpus {
		// The bumped items sit at fixed popularity ranks: globals at
		// ranks 3, 7, 11, ..., pairs at ranks 1, 5, 9, ....
		badGlobal, badPair := c%4 == 3, c%4 == 1
		coll := it.Collection
		if badGlobal {
			if coll, err = gen.Perturb(bump, coll); err != nil {
				return nil, err
			}
		}
		pair, err := core.NewCollection(pairSchema, []*bag.Bag{it.R, it.S})
		if err != nil {
			return nil, err
		}
		if badPair {
			if pair, err = gen.Perturb(bump, pair); err != nil {
				return nil, err
			}
		}
		g, err := bagio.ToJSONBags(namedBags(coll))
		if err != nil {
			return nil, err
		}
		p, err := bagio.ToJSONBags([]bagio.NamedBag{{Name: "r", Bag: pair.Bag(0)}, {Name: "s", Bag: pair.Bag(1)}})
		if err != nil {
			return nil, err
		}
		in.items = append(in.items,
			item{consistent: !badGlobal},
			item{pair: true, consistent: !badPair})
		wire = append(wire, g, p)
	}
	for i := range in.items {
		body, err := json.Marshal(wire[i])
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	for range hotWarmPasses {
		for i := range in.items {
			in.warm = append(in.warm, hotRequest(in, i, int32(i)))
		}
	}

	events, err := load.Schedule(load.Spec{
		Seed:     seed,
		RPS:      float64(hotPerSecond * seconds),
		Duration: time.Second,
		Mix:      load.Mix{Pair: 1, Global: 1},
		ZipfS:    hotZipfS,
	}, len(corpus))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for k, ev := range events {
		idx := 2 * ev.Items[0]
		if ev.Class == load.ClassPair {
			idx++
		}
		body := int32(idx)
		switch rng.Intn(4) {
		case 2:
			b, err := permutedBody(rng, wire[idx])
			if err != nil {
				return nil, err
			}
			body = int32(len(in.bodies))
			in.bodies = append(in.bodies, b)
		case 3:
			b, err := renamedBody(rng, wire[idx], "v"+strconv.FormatInt(int64(k), 36)+".")
			if err != nil {
				return nil, err
			}
			body = int32(len(in.bodies))
			in.bodies = append(in.bodies, b)
		}
		in.timed = append(in.timed, hotRequest(in, idx, body))
	}
	return in, nil
}

// rankByShape orders the corpus so that popularity rank r always lands on
// the same kind of item whatever the seed: acyclic items in generation
// order (their shapes rotate path/star/path), with a cyclic triangle at
// every third rank while any remain. BuildCorpus shuffles its items by
// seed; left that way, which shapes the seed puts at the top ranks would
// add seed-to-seed variance to a run's cost.
func rankByShape(corpus []load.Item) []load.Item {
	var acyclic, cyclic []load.Item
	for _, it := range corpus {
		if it.Cyclic {
			cyclic = append(cyclic, it)
		} else {
			acyclic = append(acyclic, it)
		}
	}
	byName := func(items []load.Item) {
		sort.Slice(items, func(i, j int) bool { return items[i].Name < items[j].Name })
	}
	byName(acyclic)
	byName(cyclic)
	out := make([]load.Item, 0, len(corpus))
	for len(acyclic)+len(cyclic) > 0 {
		if len(cyclic) > 0 && (len(out)%3 == 2 || len(acyclic) == 0) {
			out, cyclic = append(out, cyclic[0]), cyclic[1:]
		} else {
			out, acyclic = append(out, acyclic[0]), acyclic[1:]
		}
	}
	return out
}

func hotRequest(in *inputs, idx int, body int32) request {
	path := pathGlobal
	if in.items[idx].pair {
		path = pathPair
	}
	return request{path: path, ctype: ctypeJSON, body: body, item: int32(idx)}
}

// permutedBody encodes the bags with each bag's tuples shuffled.
func permutedBody(rng *rand.Rand, bags []bagio.JSONBag) ([]byte, error) {
	out := make([]bagio.JSONBag, len(bags))
	for i, b := range bags {
		ts := append([]bagio.JSONTuple(nil), b.Tuples...)
		rng.Shuffle(len(ts), func(a, c int) { ts[a], ts[c] = ts[c], ts[a] })
		out[i] = bagio.JSONBag{Name: b.Name, Schema: b.Schema, Tuples: ts}
	}
	return json.Marshal(out)
}

// renamedBody encodes the bags with every value v replaced by prefix+v,
// a bijection applied identically to every attribute, and the tuples
// shuffled.
func renamedBody(rng *rand.Rand, bags []bagio.JSONBag, prefix string) ([]byte, error) {
	out := make([]bagio.JSONBag, len(bags))
	for i, b := range bags {
		ts := make([]bagio.JSONTuple, len(b.Tuples))
		for j, t := range b.Tuples {
			vals := make([]string, len(t.Values))
			for k, v := range t.Values {
				vals[k] = prefix + v
			}
			ts[j] = bagio.JSONTuple{Values: vals, Count: t.Count}
		}
		rng.Shuffle(len(ts), func(a, c int) { ts[a], ts[c] = ts[c], ts[a] })
		out[i] = bagio.JSONBag{Name: b.Name, Schema: b.Schema, Tuples: ts}
	}
	return json.Marshal(out)
}

// pairSchema is the schema of the pair checks' bags (load.Item's R and S).
var pairSchema = hypergraph.Must([]string{"A", "B"}, []string{"B", "C"})

// freshInstance is one generated instance of a fresh workload.
type freshInstance struct {
	body       []byte
	consistent bool
}

// warmSeed seeds the fresh workloads' warm-up instances in place of the
// run's seed: the warm-up is the same for every seed, so set-up time does
// not vary with what a seed happens to draw.
const warmSeed = -1

// buildFresh generates warm+n independent instances, instance i from its
// own generator seeded by (seed, i), or (warmSeed, i) for the first warm,
// on every core; the first warm are the warm-up. Instance i therefore
// depends only on seed and i, and the pool comes out in the same order
// however the work is scheduled. Which family instance i belongs to, and
// whether it is perturbed, is fixed by i alone, so the mix of costs is
// the same for every seed.
func buildFresh(seed int64, warm, n int, path, ctype string, one func(i int, rng *rand.Rand) (freshInstance, error)) (*inputs, error) {
	total := warm + n
	out := make([]freshInstance, total)
	errs := make([]error, total)
	var next sync.Mutex
	cursor := 0
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := cursor
				cursor++
				next.Unlock()
				if i >= total {
					return
				}
				s := seed
				if i < warm {
					s = warmSeed
				}
				rng := rand.New(rand.NewSource(s*1_000_003 + int64(i)))
				out[i], errs[i] = one(i, rng)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	in := &inputs{}
	for i, inst := range out {
		in.items = append(in.items, item{consistent: inst.consistent})
		in.bodies = append(in.bodies, inst.body)
		r := request{path: path, ctype: ctype, body: int32(i), item: int32(i)}
		if i < warm {
			in.warm = append(in.warm, r)
		} else {
			in.timed = append(in.timed, r)
		}
	}
	return in, nil
}

// buildAcyclicFresh generates global checks over path (8 attributes, 7
// bags) and star (hub plus 6 bags) schemas, marginals of a random global
// bag of support acyclicSupport, sent as bagcol. Instances alternate path
// and star, and every fourth path/star couple gets one multiplicity
// bumped (gen.Perturb), which makes that bag's total differ from every
// other bag's: those must answer NO.
func buildAcyclicFresh(seed int64, seconds int) (*inputs, error) {
	return buildFresh(seed, warmAcyclic, acyclicPerSecond*seconds, pathGlobal, ctypeBagcol, func(i int, rng *rand.Rand) (freshInstance, error) {
		h := hypergraph.Path(8)
		if i%2 == 1 {
			h = hypergraph.Star(6)
		}
		coll, _, err := gen.RandomConsistent(rng, h, acyclicSupport, acyclicMaxMult, acyclicDomain)
		if err != nil {
			return freshInstance{}, err
		}
		inst := freshInstance{consistent: true}
		if (i/2)%4 == 3 {
			if coll, err = gen.Perturb(rng, coll); err != nil {
				return freshInstance{}, err
			}
			inst.consistent = false
		}
		var buf bytes.Buffer
		if err := bagio.EncodeColumnar(&buf, "", namedBags(coll)); err != nil {
			return freshInstance{}, err
		}
		inst.body = buf.Bytes()
		return inst, nil
	})
}

// namedBags names a collection's bags r0, r1, ... for the wire.
func namedBags(c *core.Collection) []bagio.NamedBag {
	out := make([]bagio.NamedBag, c.Len())
	for i := range out {
		out[i] = bagio.NamedBag{Name: "r" + strconv.Itoa(i), Bag: c.Bag(i)}
	}
	return out
}
