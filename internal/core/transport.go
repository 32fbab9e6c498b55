package core

import (
	"context"
	"fmt"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/table"
)

// pairBlocks is the network N(R,S) cut along the join key. A middle arc
// joins r to s only when r[Z] = s[Z], with Z = X∩Y, so N(R,S) is the
// disjoint union of one complete bipartite transportation block per
// value of R[Z]: its rows are the support rows of R carrying that value,
// its columns those of S, and every row–column pair is an arc. Disjoint
// schemas make one block of all rows.
type pairBlocks struct {
	rv, sv         bag.View
	totalR, totalS int64
	// rpos and spos concatenate the blocks' row positions of R and of S,
	// block by block in join order, each block's rows increasing. ends
	// holds two cumulative offsets per block: where its rows end in rpos
	// and where its columns end in spos. All three are pooled and sized
	// so they never regrow: a row lies in at most one block.
	rpos, spos, ends []int32
	// maxP, maxQ and maxCells size the kernel's scratch; witnessRows
	// bounds the witness support by Σ (p + q − 1), Theorem 5 per block.
	maxP, maxQ, maxCells, witnessRows int
}

// buildPairBlocks reads the blocks of N(R,S) off the sort-merge join's
// key runs. It fails with the typed overflow error when the total
// multiplicity of R or of S — the supply or the demand of the network —
// leaves int64; no other sum in the construction can.
func buildPairBlocks(r, s *bag.Bag) (*pairBlocks, error) {
	rv, sv := r.View(), s.View()
	totalR, err := unarySizeOf(rv, "R")
	if err != nil {
		return nil, err
	}
	totalS, err := unarySizeOf(sv, "S")
	if err != nil {
		return nil, err
	}
	nR, nS := rv.Rows.N(), sv.Rows.N()
	pb := &pairBlocks{
		rv: rv, sv: sv, totalR: totalR, totalS: totalS,
		rpos: table.GetInt32s(nR)[:0],
		spos: table.GetInt32s(nS)[:0],
		ends: table.GetInt32s(2 * min(nR, nS))[:0],
	}
	err = bag.EachJoinRun(r, s, func(rrun, srun []int32) error {
		p, q := len(rrun), len(srun)
		pb.rpos = append(pb.rpos, rrun...)
		pb.spos = append(pb.spos, srun...)
		pb.ends = append(pb.ends, int32(len(pb.rpos)), int32(len(pb.spos)))
		pb.maxP, pb.maxQ, pb.maxCells = max(pb.maxP, p), max(pb.maxQ, q), max(pb.maxCells, p*q)
		pb.witnessRows += p + q - 1
		return nil
	})
	if err != nil {
		pb.release()
		return nil, err
	}
	return pb, nil
}

// release returns the pooled buffers.
func (pb *pairBlocks) release() {
	table.PutInt32s(pb.rpos)
	table.PutInt32s(pb.spos)
	table.PutInt32s(pb.ends)
}

// ctxPollProbes is how many probes the kernel makes between two
// cancellation polls inside one block (it also polls at every block).
const ctxPollProbes = 256

// minimalWitness runs the deletion kernel block by block and assembles
// the witness from the surviving cells. The counters feed the
// engine.maxflow span: probes counts the middle arcs examined (every arc
// is examined once), augmentations the augmenting paths the reroute
// searches pushed.
func (pb *pairBlocks) minimalWitness(ctx context.Context, r, s *bag.Bag) (w *bag.Bag, probes, augmentations int64, err error) {
	if pb.totalR != pb.totalS {
		return nil, 0, 0, fmt.Errorf("core: marginals agree but network is unsaturated")
	}
	k := newTransport(pb.maxP, pb.maxQ, pb.maxCells)
	defer k.release()
	wb := newWitnessBuilder(r, s, pb.rv, pb.sv, pb.witnessRows)
	defer wb.release()
	rCounts, sCounts := pb.rv.Rows.Counts, pb.sv.Rows.Counts
	var r0, s0 int32
	for b := 0; b < len(pb.ends); b += 2 {
		if err := ctx.Err(); err != nil {
			return nil, probes, k.augmentations, err
		}
		r1, s1 := pb.ends[b], pb.ends[b+1]
		rows, cols := pb.rpos[r0:r1], pb.spos[s0:s1]
		r0, s0 = r1, s1
		if err := k.fill(rows, cols, rCounts, sCounts); err != nil {
			return nil, probes, k.augmentations, err
		}
		n, err := k.minimize(ctx, len(rows), len(cols))
		probes += n
		if err != nil {
			return nil, probes, k.augmentations, err
		}
		q := len(cols)
		for c, f := range k.flow[:len(rows)*q] {
			if f > 0 {
				wb.add(int(rows[c/q]), int(cols[c%q]), f)
			}
		}
	}
	w, err = wb.bag()
	return w, probes, k.augmentations, err
}

// transport is the deletion kernel for one p×q transportation block at
// a time: row i supplies R(r_i), column j demands S(s_j), and cell (i,j)
// is the middle arc r_i → s_j. Its scratch is sized once for the largest
// block and reused.
type transport struct {
	// flow is the dense p×q flow, row-major; a deleted cell holds -1.
	flow []int64
	// Search scratch, backed by scratch: rowFrom[i] is 1 + the column
	// row i was reached from and colFrom[j] is 1 + the row column j was
	// reached from, 0 while unreached. The row queue holds each row at
	// most once, so appending to it never regrows it.
	rowFrom, colFrom, queue []int32
	scratch                 []int32
	augmentations           int64
}

func newTransport(maxP, maxQ, maxCells int) *transport {
	k := &transport{flow: table.GetInt64s(maxCells), scratch: table.GetInt32s(2*maxP + maxQ)}
	k.rowFrom = k.scratch[:maxP:maxP]
	k.queue = k.scratch[maxP : maxP : 2*maxP]
	k.colFrom = k.scratch[2*maxP:]
	return k
}

func (k *transport) release() {
	table.PutInt64s(k.flow)
	table.PutInt32s(k.scratch)
}

// fill sets the block's starting flow by the staircase (northwest-corner)
// rule: walk from cell (0,0), each time shipping as much as the current
// row still supplies and the current column still demands, then moving
// down past an exhausted row and right past a satisfied column. The
// result saturates every row and column exactly when the block's supply
// equals its demand, which equal shared marginals guarantee.
func (k *transport) fill(rows, cols []int32, rCounts, sCounts []int64) error {
	p, q := len(rows), len(cols)
	flow := k.flow[:p*q]
	clear(flow)
	i, j := 0, 0
	supply, demand := rCounts[rows[0]], sCounts[cols[0]]
	for i < p && j < q {
		x := min(supply, demand)
		flow[i*q+j] = x
		supply -= x
		demand -= x
		if supply == 0 {
			if i++; i < p {
				supply = rCounts[rows[i]]
			}
		}
		if demand == 0 {
			if j++; j < q {
				demand = sCounts[cols[j]]
			}
		}
	}
	if i < p || j < q {
		return fmt.Errorf("core: marginals agree but network is unsaturated")
	}
	return nil
}

// minimize replays the self-reducibility loop of Theorem 5 on the block:
// visit the cells in middle-arc order (row-major) and delete each one for
// good if some saturated flow survives without it. A cell carrying no
// flow goes outright — the current flow already avoids it. A cell
// carrying f units goes iff reroute moves all f units from its row to
// its column over the remaining cells; otherwise the unmoved remainder
// returns to it and it stays. Which cells stay depends only on the visit
// order and on feasibility, never on the flow at hand, and the flow on
// the inclusion-minimal support left at the end is unique. It returns
// the number of cells probed.
func (k *transport) minimize(ctx context.Context, p, q int) (int64, error) {
	flow := k.flow[:p*q]
	for c := range flow {
		if c%ctxPollProbes == ctxPollProbes-1 {
			if err := ctx.Err(); err != nil {
				return int64(c), err
			}
		}
		f := flow[c]
		flow[c] = -1
		if f == 0 {
			continue
		}
		if rest := k.reroute(p, q, c/q, c%q, f); rest > 0 {
			flow[c] = rest
		}
	}
	return int64(len(flow)), nil
}

// reroute pushes up to f units from row src to column dst along
// augmenting paths and returns how many it could not move. On a path,
// rows step to columns through live cells (uncapacitated: any flow a
// saturated flow puts there is within the arc's min(R(r), S(s))) and
// columns step back to rows through cells with positive flow, so the
// bottleneck is the least of those backward flows and f.
func (k *transport) reroute(p, q, src, dst int, f int64) int64 {
	flow := k.flow[:p*q]
	for f > 0 {
		x := k.search(p, q, src, dst)
		if x < 0 {
			return f
		}
		d := f
		for r := x; r != src; {
			y := int(k.rowFrom[r]) - 1
			d = min(d, flow[r*q+y])
			r = int(k.colFrom[y]) - 1
		}
		flow[x*q+dst] += d
		for r := x; r != src; {
			y := int(k.rowFrom[r]) - 1
			flow[r*q+y] -= d
			r = int(k.colFrom[y]) - 1
			flow[r*q+y] += d
		}
		f -= d
		k.augmentations++
	}
	return 0
}

// search runs a breadth-first search for an augmenting path from row src
// to column dst and returns the path's last row (one with a live cell in
// column dst), or -1. It stops at the first such row it reaches: the
// closing step to dst needs no capacity. Clearing the marks costs
// O(p+q), no more than scanning the start row.
func (k *transport) search(p, q, src, dst int) int {
	rowFrom, colFrom := k.rowFrom[:p], k.colFrom[:q]
	clear(rowFrom)
	clear(colFrom)
	flow := k.flow[:p*q]
	rowFrom[src] = 1 // reached: the search starts here
	queue := append(k.queue[:0], int32(src))
	for qi := 0; qi < len(queue); qi++ {
		x := int(queue[qi])
		for y, v := range flow[x*q : x*q+q] {
			if v < 0 || colFrom[y] != 0 {
				continue
			}
			colFrom[y] = int32(x) + 1
			for r := 0; r < p; r++ {
				if rowFrom[r] != 0 || flow[r*q+y] <= 0 {
					continue
				}
				rowFrom[r] = int32(y) + 1
				if flow[r*q+dst] >= 0 {
					return r
				}
				queue = append(queue, int32(r))
			}
		}
	}
	return -1
}
