package core

import (
	"context"
	"fmt"
	"math"

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
	// maxP and maxQ size the kernel's scratch; witnessRows bounds the
	// witness support by Σ (p + q − 1), Theorem 5 per block.
	maxP, maxQ, witnessRows int
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
		pb.maxP, pb.maxQ = max(pb.maxP, p), max(pb.maxQ, q)
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
// the witness from the kept cells. The counters feed the engine.maxflow
// span: probes counts the middle arcs examined (every arc is examined
// once), augmentations the augmenting paths the reroute searches pushed.
func (pb *pairBlocks) minimalWitness(ctx context.Context, r, s *bag.Bag) (w *bag.Bag, probes, augmentations int64, err error) {
	if pb.totalR != pb.totalS {
		return nil, 0, 0, fmt.Errorf("core: marginals agree but network is unsaturated")
	}
	k := newTransport(pb.maxP, pb.maxQ)
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
		n, err := k.minimize(ctx, rows, rCounts, len(cols))
		probes += n
		if err != nil {
			return nil, probes, k.augmentations, err
		}
		for c, f := range k.flow[:k.rowStart[len(rows)]] {
			if f > 0 {
				wb.add(int(rows[k.cellRow[c]]), int(cols[k.cellCol[c]]), f)
			}
		}
	}
	w, err = wb.bag()
	return w, probes, k.augmentations, err
}

// transport is the deletion kernel for one p×q transportation block at
// a time: row i supplies R(r_i), column j demands S(s_j), and cell (i,j)
// is the middle arc r_i → s_j. The loop visits the cells row by row, so
// while it is on row i the rows above are final and the rows below are
// untouched. The kernel stores only the kept cells of the final rows,
// holds the current row's flow densely, and holds the rows below as one
// aggregate row joined to every column. Its scratch comes from the table
// pools, sized once for the largest block.
type transport struct {
	// row is the current row's flow to its unvisited columns; spare[j]
	// is what the aggregate of the rows below ships to column j.
	row, spare []int64
	// The kept cells in visit order: cell c is (cellRow[c], cellCol[c])
	// and carries flow[c]. Row i's cells are rowStart[i]:rowStart[i+1];
	// colHead and cellNext thread each column's cells, -1 ending a list.
	// Kept cells stay inside the final support, a forest of at most
	// p + q − 1 cells (Theorem 5), so the arrays never overflow.
	flow                       []int64
	cellRow, cellCol, cellNext []int32
	rowStart, colHead          []int32
	// Search scratch: a row or column is reached in the current search
	// iff its mark equals gen, so no mark is ever cleared. rowFrom[i] is
	// the cell row i was reached back through; colFrom[j] is the cell
	// column j was reached through, or -1 for the current row's
	// unvisited cell. The queue holds each row at most once.
	rowMark, colMark, rowFrom, colFrom, queue []int32
	gen                                       int32
	i64                                       []int64
	i32                                       []int32
	augmentations                             int64
}

func newTransport(maxP, maxQ int) *transport {
	cells := maxP + maxQ
	k := &transport{i64: table.GetInt64s(2*maxQ + cells), i32: table.GetInt32s(3*cells + 4*maxP + 3*maxQ + 1)}
	i64, i32 := k.i64, k.i32
	k.row, k.spare, k.flow = carve(&i64, maxQ), carve(&i64, maxQ), carve(&i64, cells)
	k.cellRow, k.cellCol, k.cellNext = carve(&i32, cells), carve(&i32, cells), carve(&i32, cells)
	k.rowStart, k.colHead = carve(&i32, maxP+1), carve(&i32, maxQ)
	k.rowMark, k.rowFrom, k.queue = carve(&i32, maxP), carve(&i32, maxP), carve(&i32, maxP)
	k.colMark, k.colFrom = carve(&i32, maxQ), carve(&i32, maxQ)
	clear(k.rowMark) // pooled buffers come back dirty
	clear(k.colMark)
	return k
}

// carve cuts the next n elements off *buf.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

func (k *transport) release() {
	table.PutInt64s(k.i64)
	table.PutInt32s(k.i32)
}

// fill starts a block with every row in the aggregate, which ships each
// column its whole demand, and no cell kept. Equal shared marginals give
// the block equal supply and demand; anything else is an unsaturated
// network.
func (k *transport) fill(rows, cols []int32, rCounts, sCounts []int64) error {
	var supply, demand int64
	for _, i := range rows {
		supply += rCounts[i]
	}
	for j, c := range cols {
		k.spare[j], k.colHead[j] = sCounts[c], -1
		demand += sCounts[c]
	}
	if supply != demand {
		return fmt.Errorf("core: marginals agree but network is unsaturated")
	}
	k.rowStart[0] = 0
	return nil
}

// minimize replays the self-reducibility loop of Theorem 5 on the block:
// visit the cells in middle-arc order (row-major) and delete each one for
// good if some saturated flow survives without it. A cell carrying no
// flow goes outright — the current flow already avoids it. A cell
// carrying f units goes iff reroute moves all f units from its row to
// its column over the remaining cells; otherwise the unmoved remainder
// returns to it and it is kept. Which cells are kept depends only on the
// visit order and on feasibility, never on the flow at hand, and the flow
// on the inclusion-minimal support left at the end is unique.
//
// Holding the unvisited rows as one aggregate row changes no answer:
// they are complete rows whose supplies total what the aggregate ships,
// so any split it ships can be shared back out among them, and
// takeShare does so row by row. It returns the number of cells probed.
func (k *transport) minimize(ctx context.Context, rows []int32, rCounts []int64, q int) (int64, error) {
	var probes int64
	for i, r := range rows {
		k.takeShare(rCounts[r], q)
		k.rowStart[i+1] = k.rowStart[i]
		for j := 0; j < q; j++ {
			if probes++; probes%ctxPollProbes == 0 {
				if err := ctx.Err(); err != nil {
					return probes, err
				}
			}
			if f := k.row[j]; f > 0 {
				if rest := k.reroute(i, j, q, f); rest > 0 {
					k.keep(i, j, rest)
				}
			}
		}
	}
	return probes, nil
}

// takeShare moves the next row out of the aggregate by the staircase
// (northwest-corner) rule, taking its supply from the columns left to
// right. The aggregate ships exactly its rows' supplies, so the walk
// ends inside the block.
func (k *transport) takeShare(supply int64, q int) {
	clear(k.row[:q])
	for j := 0; supply > 0; j++ {
		x := min(supply, k.spare[j])
		k.row[j], k.spare[j], supply = x, k.spare[j]-x, supply-x
	}
}

// keep records cell (i,j) of the current row as kept with flow f.
func (k *transport) keep(i, j int, f int64) {
	c := k.rowStart[i+1]
	k.rowStart[i+1]++
	k.cellRow[c], k.cellCol[c], k.flow[c] = int32(i), int32(j), f
	k.cellNext[c], k.colHead[j] = k.colHead[j], c
}

// reroute pushes up to f units from row src to column dst along
// augmenting paths and returns how many it could not move. A path
// alternates forward steps, from a row to a column through a live cell
// (uncapacitated: any flow a saturated flow puts there is within the
// arc's min(R(r), S(s))), and backward steps, from a column to a row
// shipping to it. It closes at dst through a kept cell, or at a column
// the aggregate ships to, which ships the units on into dst instead; the
// bottleneck is the least of f and every amount a step takes back.
func (k *transport) reroute(src, dst, q int, f int64) int64 {
	for f > 0 {
		end := k.search(src, dst, q)
		if end < 0 {
			return f
		}
		d := f
		if end != dst {
			d = min(d, k.spare[end])
		}
		for y := end; k.colFrom[y] >= 0; {
			b := k.rowFrom[k.cellRow[k.colFrom[y]]]
			if b < 0 {
				break
			}
			d = min(d, k.flow[b])
			y = int(k.cellCol[b])
		}
		if end != dst {
			k.spare[end] -= d
			k.spare[dst] += d
		}
		for y := end; ; {
			c := k.colFrom[y]
			if c < 0 {
				k.row[y] += d
				break
			}
			k.flow[c] += d
			b := k.rowFrom[k.cellRow[c]]
			if b < 0 {
				break
			}
			k.flow[b] -= d
			y = int(k.cellCol[b])
		}
		f -= d
		k.augmentations++
	}
	return 0
}

// search runs a breadth-first search for an augmenting path from row src
// to column dst over the kept cells and src's unvisited cells, and
// returns the column the path closes at, or -1. The marks carry the
// search's generation, so starting a search clears nothing.
func (k *transport) search(src, dst, q int) int {
	if k.gen == math.MaxInt32 {
		clear(k.rowMark)
		clear(k.colMark)
		k.gen = 0
	}
	k.gen++
	k.rowMark[src], k.rowFrom[src] = k.gen, -1
	k.queue = append(k.queue[:0], int32(src))
	for qi := 0; qi < len(k.queue); qi++ {
		x := k.queue[qi]
		for c := k.rowStart[x]; c < k.rowStart[x+1]; c++ {
			if y := int(k.cellCol[c]); k.reach(y, c, dst) {
				return y
			}
		}
		for y := dst + 1; qi == 0 && y < q; y++ { // src's unvisited cells
			if k.reach(y, -1, dst) {
				return y
			}
		}
	}
	return -1
}

// reach marks column y reached through cell c and reports whether the
// path closes there: y is dst, or the aggregate ships to y. Otherwise it
// queues the unreached rows that ship to y.
func (k *transport) reach(y int, c int32, dst int) bool {
	if k.colMark[y] == k.gen {
		return false
	}
	k.colMark[y], k.colFrom[y] = k.gen, c
	if y == dst || k.spare[y] > 0 {
		return true
	}
	for b := k.colHead[y]; b >= 0; b = k.cellNext[b] {
		if x := k.cellRow[b]; k.flow[b] > 0 && k.rowMark[x] != k.gen {
			k.rowMark[x], k.rowFrom[x] = k.gen, b
			k.queue = append(k.queue, x)
		}
	}
	return false
}
