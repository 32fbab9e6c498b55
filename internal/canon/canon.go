// Package canon computes canonical fingerprints of bags and collections
// of bags, invariant under the two symmetries that preserve every
// consistency question of the paper:
//
//   - tuple order: bags are multisets, so the order tuples were inserted
//     in (or enumerated in) cannot matter;
//   - consistent value renaming: the decision procedures only ever compare
//     values for equality within an attribute, so applying a bijection to
//     the values of any attribute — consistently across all bags
//     containing that attribute — preserves consistency, witnesses (up to
//     the same renaming), and every size norm.
//
// Attribute names are NOT renamed: they index the schema hypergraph, and
// two collections over differently named hyperedges are different
// instances.
//
// The fingerprint is the SHA-256 of a canonical encoding: values are
// ranked per attribute into dense canonical indices by a color-refinement
// pass (Weisfeiler–Leman style, with value colors refined by the multiset
// of hashes of the tuples they occur in), and the instance is then emitted
// as sorted tuples of canonical indices with multiplicities. Equality of
// fingerprints therefore implies the instances are isomorphic under
// per-attribute value bijections (up to SHA-256 collisions), which makes
// the fingerprint a sound cache key: isomorphic instances have the same
// consistency decision, and a cached witness stored as canonical indices
// is rebuilt over a hitting instance through its Canonical's tables.
//
// Because equality within an attribute is all the procedures use, the
// whole computation runs in dictionary-id space. Each dictionary's ids are
// mapped once into per-attribute space ids; refinement hashes machine
// words over flat arrays; and a Canonical maps each canonical index
// straight to an id in one of the instance's own dictionaries. Strings
// are compared only to break residual ties and to unify values when
// several dictionaries feed one attribute.
//
// The fingerprint is a persistent store key, so its bits never change
// with the implementation. What may change is only how the same words
// reach the same hashes: each row's FNV state after its fixed prefix
// (bag index and multiplicity) is computed once per call, independent
// FNV chains (four rows, two occurrence lists) run interleaved, the
// distinct colors of the stop rule are counted exactly with a hash set
// instead of a sort, and each bag's rows are put in canonical order by
// counting sorts over the dense per-attribute ranks. refBags in the
// tests is the original string-keyed implementation, kept as the
// oracle.
//
// Completeness of the invariance is best-effort where canonical labeling
// is inherently hard: when color refinement leaves two values of an
// attribute indistinguishable, the tie is broken by the original value
// strings. Ties between automorphic values are harmless (any order yields
// the same encoding); ties between refinement-equivalent but
// non-automorphic values (CFI-style constructions) can make two isomorphic
// instances fingerprint differently — a cache miss, never a wrong hit.
package canon

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/bits"
	"slices"
	"strings"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/table"
)

// Fingerprint is a 256-bit canonical instance digest.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint in hex.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// IsZero reports whether the fingerprint is the zero value (no instance
// hashes to it: every encoding is non-empty).
func (f Fingerprint) IsZero() bool { return f == Fingerprint{} }

// Canonical is the result of canonicalizing an instance: its fingerprint
// plus, per attribute, the tables from canonical index to value and to
// dictionary id. Two instances with equal fingerprints are isomorphic via
// the bijection that maps, for every attribute, the value at index i of
// one to the value at index i of the other.
type Canonical struct {
	// FP is the instance fingerprint.
	FP Fingerprint

	cols []rankTable // one per attribute, in first-seen order
}

// rankTable is one attribute's canonical value order.
type rankTable struct {
	attr string
	vals []string // canonical index -> value
	// dict is the dictionary of the attribute's first support value (its
	// home); ids maps canonical index -> id in dict, or table.MissingID
	// for a value no row over dict holds.
	dict *table.Dict
	ids  []uint32
}

// IDs returns the table from attr's canonical indices to ids in dict, one
// of the instance's own dictionaries for attr. Looking up an index's id is
// one array load, so a cached witness stored as indices is rebuilt over a
// hitting instance's dictionaries without touching a string. An index maps
// to table.MissingID when its value occurs only in columns over other
// dictionaries; no witness of the instance holds such a value, since a
// witness's values occur in every bag over the attribute. dict is nil when
// attr has no values.
func (c *Canonical) IDs(attr string) (*table.Dict, []uint32) {
	for i := range c.cols {
		if c.cols[i].attr == attr {
			return c.cols[i].dict, c.cols[i].ids
		}
	}
	return nil, nil
}

// space is one attribute's value universe during a canonicalization: the
// values occurring in support rows, numbered by dense space ids.
type space struct {
	attr    string
	bound   int      // sum of Len over the dictionaries feeding the space
	base    int      // global id of space id 0
	vals    []string // space id -> value
	home    *table.Dict
	homeIDs []uint32 // space id -> id in home, or table.MissingID
	// index maps value -> space id. It stays nil while the home
	// dictionary alone feeds the space: dictionaries are injective, so
	// each new id is then a new value and no string is hashed.
	index map[string]uint32
}

// intern returns the space id of v, which is id in dictionary d.
func (sp *space) intern(v string, d *table.Dict, id uint32) uint32 {
	if sp.home == nil {
		sp.home = d
	}
	homeID := table.MissingID
	if d == sp.home {
		homeID = id
	} else if sp.index == nil {
		// A second dictionary feeds the space: equal strings must meet.
		sp.index = make(map[string]uint32, sp.bound)
		for k, s := range sp.vals {
			sp.index[s] = uint32(k)
		}
	}
	if sp.index != nil {
		if k, ok := sp.index[v]; ok {
			if homeID != table.MissingID {
				sp.homeIDs[k] = homeID
			}
			return k
		}
		sp.index[v] = uint32(len(sp.vals))
	}
	sp.vals = append(sp.vals, v)
	sp.homeIDs = append(sp.homeIDs, homeID)
	return uint32(len(sp.vals) - 1)
}

// remapKey names one dictionary-id -> space-id table. Columns sharing a
// dictionary share the table, so each of its values is resolved once.
type remapKey struct {
	d  *table.Dict
	sp int
}

// Bags canonicalizes an ordered list of bags (bag i of one instance
// corresponds to bag i of another; collections are indexed by hyperedge
// position, so bag order is significant and not canonicalized away).
//
// The implementation consumes the bags' interned columnar views directly.
// Dictionary ids are translated once per dictionary into per-attribute
// space ids, and every refinement round then hashes machine integers over
// flat arrays: CSR occurrence lists whose offsets are counted once, colors
// and ranks indexed by space id, and row hashes continued from each row's
// fixed prefix. The hash functions, refinement schedule, tie-breaking,
// and final encoding are those of the original string-keyed
// implementation, so fingerprints are bit-for-bit identical (the
// reference property test, FuzzFingerprint and TestFingerprintPin pin
// this).
func Bags(bags []*bag.Bag) (*Canonical, error) {
	if len(bags) == 0 {
		return nil, fmt.Errorf("canon: empty instance")
	}
	views := make([]bag.View, len(bags))
	attrs := make([][]string, len(bags))
	nrefs, nrows, ncols := 0, 0, 0
	for i, b := range bags {
		if b == nil {
			return nil, fmt.Errorf("canon: nil bag at index %d", i)
		}
		views[i] = b.View()
		attrs[i] = views[i].Schema.Attrs()
		nrefs += len(views[i].Rows.IDs)
		nrows += views[i].Rows.N()
		ncols += len(attrs[i])
	}

	// One space per attribute, one remap table per (dictionary, space).
	var spaces []space
	spaceOf := make(map[string]int)
	colSpace := make([]int, 0, ncols) // bag after bag, column after column
	remaps := make(map[remapKey][]uint32)
	for i, v := range views {
		for j, a := range attrs[i] {
			k, ok := spaceOf[a]
			if !ok {
				k = len(spaces)
				spaceOf[a] = k
				spaces = append(spaces, space{attr: a})
			}
			colSpace = append(colSpace, k)
			key := remapKey{v.Cols[j], k}
			if _, ok := remaps[key]; !ok {
				m := table.GetUint32s(key.d.Len())
				for x := range m {
					m[x] = table.MissingID
				}
				remaps[key] = m
				spaces[k].bound += len(m)
			}
		}
	}
	defer func() {
		for _, m := range remaps {
			table.PutUint32s(m)
		}
	}()
	total := 0
	for k := range spaces {
		total += spaces[k].bound
	}
	valsBuf := make([]string, total)
	homeBuf := table.GetUint32s(total)
	defer table.PutUint32s(homeBuf)
	for k, off := 0, 0; k < len(spaces); k++ {
		sp := &spaces[k]
		sp.vals = valsBuf[off : off : off+sp.bound]
		sp.homeIDs = homeBuf[off : off : off+sp.bound]
		off += sp.bound
	}

	// Translate every bag column into space ids, then into global ids
	// (space base + space id). refs holds all bags' rows, bag after bag.
	refs := table.GetUint32s(nrefs)
	defer table.PutUint32s(refs)
	c, r0 := 0, 0
	for _, v := range views {
		w, ids := v.Rows.W, v.Rows.IDs
		for j := 0; j < w; j++ {
			k := colSpace[c+j]
			d := v.Cols[j]
			m := remaps[remapKey{d, k}]
			vals := d.Snapshot()
			for x := j; x < len(ids); x += w {
				id := ids[x]
				sid := m[id]
				if sid == table.MissingID {
					sid = spaces[k].intern(vals[id], d, id)
					m[id] = sid
				}
				refs[r0+x] = sid
			}
		}
		c += w
		r0 += len(ids)
	}
	nv := 0
	for k := range spaces {
		spaces[k].base = nv
		nv += len(spaces[k].vals)
	}
	c, r0 = 0, 0
	for _, v := range views {
		w, n := v.Rows.W, len(v.Rows.IDs)
		for j := 0; j < w; j++ {
			base := uint32(spaces[colSpace[c+j]].base)
			for x := r0 + j; x < r0+n; x += w {
				refs[x] += base
			}
		}
		c += w
		r0 += n
	}

	// Color refinement. Colors are uint64 hashes; the initial color of a
	// value depends only on its attribute name, and each round folds in
	// the multiset of hashes of the tuples the value occurs in (a tuple
	// hash covers the bag index, the multiplicity, and the current colors
	// of all its values). Everything a color depends on is
	// renaming-invariant, so the stable partition is too.
	color := table.GetUint64s(nv)
	defer table.PutUint64s(color)
	for k := range spaces {
		sp := &spaces[k]
		c0 := hashStrings("attr", sp.attr)
		for g := sp.base; g < sp.base+len(sp.vals); g++ {
			color[g] = c0
		}
	}
	// A tuple hash starts with the bag index and the row's multiplicity,
	// which no round changes: pre holds each row's FNV state after those
	// two words, so a round hashes only the row's colors.
	pre := table.GetUint64s(nrows)
	defer table.PutUint64s(pre)
	p0 := 0
	for i, v := range views {
		bagPrefix := newHasher()
		bagPrefix.writeUint(uint64(i))
		for _, count := range v.Rows.Counts {
			h := bagPrefix
			h.writeUint(uint64(count))
			pre[p0] = h.sum()
			p0++
		}
	}
	// Occurrence lists in CSR form: value g's tuple hashes of a round
	// live in occ[off[g]:off[g+1]]. Rows never change between rounds, so
	// the offsets are counted once.
	off := table.GetInt32s(nv + 1)
	defer table.PutInt32s(off)
	clear(off)
	for _, g := range refs {
		off[g+1]++
	}
	for g := 0; g < nv; g++ {
		off[g+1] += off[g]
	}
	cur := table.GetInt32s(nv)
	defer table.PutInt32s(cur)
	occ := table.GetUint64s(nrefs)
	defer table.PutUint64s(occ)
	set := table.GetUint64s(1 << bits.Len(uint(2*nv)))
	defer table.PutUint64s(set)
	distinct := distinctColors(color, set)
	// The partition refines monotonically (old color is folded into the
	// new one), so it stabilizes after at most |values| strict
	// refinements.
	for round := 0; round <= nv; round++ {
		copy(cur, off[:nv])
		r0, p0 := 0, 0
		for _, v := range views {
			n := v.Rows.N()
			scatterTupleHashes(refs[r0:r0+len(v.Rows.IDs)], v.Rows.W, pre[p0:p0+n], color, occ, cur)
			r0 += len(v.Rows.IDs)
			p0 += n
		}
		foldOccurrences(color, occ, off)
		if d := distinctColors(color, set); d == distinct {
			break
		} else {
			distinct = d
		}
	}

	// Canonical interning: within each attribute, order values by final
	// color, breaking residual ties by the original value string (see the
	// package comment for why this is sound).
	can := &Canonical{cols: make([]rankTable, len(spaces))}
	rankVals := make([]string, nv)
	rankIDs := make([]uint32, nv)
	rankOf := table.GetUint32s(nv) // global id -> canonical index
	defer table.PutUint32s(rankOf)
	order := table.GetUint32s(nv)
	defer table.PutUint32s(order)
	maxValues := 0
	for k := range spaces {
		sp := &spaces[k]
		n, base := len(sp.vals), sp.base
		maxValues = max(maxValues, n)
		ord := order[base : base+n]
		for x := range ord {
			ord[x] = uint32(x)
		}
		col := color[base : base+n]
		slices.SortFunc(ord, func(a, b uint32) int {
			if c := cmp.Compare(col[a], col[b]); c != 0 {
				return c
			}
			return strings.Compare(sp.vals[a], sp.vals[b])
		})
		t := rankTable{attr: sp.attr, dict: sp.home, vals: rankVals[base : base+n : base+n], ids: rankIDs[base : base+n : base+n]}
		for rank, sid := range ord {
			t.vals[rank] = sp.vals[sid]
			t.ids[rank] = sp.homeIDs[sid]
			rankOf[base+int(sid)] = uint32(rank)
		}
		can.cols[k] = t
	}

	// Emit the canonical encoding: per bag, its attribute names, then its
	// tuples as canonical index vectors with multiplicities, sorted by
	// index vector. The encoding is a faithful description of the
	// instance up to per-attribute renaming.
	for x, g := range refs {
		refs[x] = rankOf[g] // refs now holds every row's canonical index vector
	}
	perm := table.GetInt32s(nrows)
	defer table.PutInt32s(perm)
	tmp := table.GetInt32s(nrows)
	defer table.PutInt32s(tmp)
	buckets := table.GetInt32s(maxValues + 1)
	defer table.PutInt32s(buckets)
	enc := digest{h: sha256.New()}
	enc.u64(uint64(len(views)))
	c, r0 = 0, 0
	for i, v := range views {
		enc.u64(uint64(len(attrs[i])))
		for _, a := range attrs[i] {
			enc.str(a)
		}
		w, n := v.Rows.W, v.Rows.N()
		vecs, counts := refs[r0:r0+len(v.Rows.IDs)], v.Rows.Counts
		sorted := sortRows(vecs, w, counts, colSpace[c:c+w], spaces, perm[:n], tmp[:n], buckets)
		enc.u64(uint64(n))
		for _, p := range sorted {
			for _, x := range vecs[int(p)*w : int(p+1)*w] {
				enc.u64(uint64(x))
			}
			enc.u64(uint64(counts[p]))
		}
		c += w
		r0 += len(v.Rows.IDs)
	}
	enc.sum(can.FP[:0])
	return can, nil
}

// scatterTupleHashes computes one round's tuple hash of each row of a bag
// (rows holds its n rows of w global ids, pre their fixed prefixes) and
// appends it to the occurrence list of every value in the row. Rows are
// hashed four at a time, each on its own FNV chain, so the chains'
// multiplies overlap; every chain takes the same words in the same order
// as one row alone.
func scatterTupleHashes(rows []uint32, w int, pre, color, occ []uint64, cur []int32) {
	n, r := len(pre), 0
	for ; r+4 <= n; r += 4 {
		x0 := rows[r*w : (r+1)*w]
		x1 := rows[(r+1)*w : (r+2)*w]
		x2 := rows[(r+2)*w : (r+3)*w]
		x3 := rows[(r+3)*w : (r+4)*w]
		h0, h1, h2, h3 := pre[r], pre[r+1], pre[r+2], pre[r+3]
		for j := range x0 {
			h0 = fnvWord(h0, color[x0[j]])
			h1 = fnvWord(h1, color[x1[j]])
			h2 = fnvWord(h2, color[x2[j]])
			h3 = fnvWord(h3, color[x3[j]])
		}
		for j := range x0 {
			g0, g1, g2, g3 := x0[j], x1[j], x2[j], x3[j]
			occ[cur[g0]] = h0
			cur[g0]++
			occ[cur[g1]] = h1
			cur[g1]++
			occ[cur[g2]] = h2
			cur[g2]++
			occ[cur[g3]] = h3
			cur[g3]++
		}
	}
	for ; r < n; r++ {
		x := rows[r*w : (r+1)*w]
		h := pre[r]
		for _, g := range x {
			h = fnvWord(h, color[g])
		}
		for _, g := range x {
			occ[cur[g]] = h
			cur[g]++
		}
	}
}

// foldOccurrences replaces each value's color by the hash of the old
// color and its sorted occurrence list. Values are folded two at a time:
// the lists' common length on two interleaved chains, then each tail
// alone, which feeds every chain the same words as a value alone.
func foldOccurrences(color, occ []uint64, off []int32) {
	nv, g := len(color), 0
	for ; g+2 <= nv; g += 2 {
		a, b := occ[off[g]:off[g+1]], occ[off[g+1]:off[g+2]]
		sortHashes(a)
		sortHashes(b)
		ha, hb := fnvWord(fnvOffset, color[g]), fnvWord(fnvOffset, color[g+1])
		m := min(len(a), len(b))
		for k, x := range a[:m] {
			ha = fnvWord(ha, x)
			hb = fnvWord(hb, b[k])
		}
		for _, x := range a[m:] {
			ha = fnvWord(ha, x)
		}
		for _, x := range b[m:] {
			hb = fnvWord(hb, x)
		}
		color[g], color[g+1] = ha, hb
	}
	if g < nv {
		a := occ[off[g]:off[g+1]]
		sortHashes(a)
		h := fnvWord(fnvOffset, color[g])
		for _, x := range a {
			h = fnvWord(h, x)
		}
		color[g] = h
	}
}

// sortHashes sorts one occurrence list: by insertion below a length where
// that beats slices.Sort's setup, by slices.Sort above it. The order is
// the same either way.
func sortHashes(hs []uint64) {
	if len(hs) > insertionSortMax {
		slices.Sort(hs)
		return
	}
	for i := 1; i < len(hs); i++ {
		x, j := hs[i], i
		for ; j > 0 && hs[j-1] > x; j-- {
			hs[j] = hs[j-1]
		}
		hs[j] = x
	}
}

const insertionSortMax = 12

// distinctColors counts the distinct colors across every attribute space
// (matching the string-keyed implementation, which counted over the whole
// valueRef universe at once), exactly: set is an open-addressing table
// whose power-of-two length is at least twice len(colors). A color probes
// from the slot its top bits name (colors are FNV hashes, whose top bits
// are well mixed); 0 marks an empty slot, so color 0 is counted apart.
func distinctColors(colors, set []uint64) int {
	clear(set)
	mask := uint64(len(set) - 1)
	shift := uint(64 - bits.Len64(mask))
	d, zero := 0, false
	for _, c := range colors {
		if c == 0 {
			if !zero {
				zero = true
				d++
			}
			continue
		}
		for x := c >> shift; ; x = (x + 1) & mask {
			if set[x] == c {
				break
			}
			if set[x] == 0 {
				set[x] = c
				d++
				break
			}
		}
	}
	return d
}

// sortRows returns the order of a bag's rows (vecs holds its canonical
// index vectors, w per row) by index vector, then count: the order of
// slices.Compare over each row's vector with its count appended. Stable
// counting sorts, one per column from the last, order the vectors in
// O(w·(n + values)), since the ranks of column j are dense below its
// space's value count. A bag's rows are distinct and a dictionary maps
// ids to distinct strings, so equal vectors need a non-injective
// dictionary (table.DictFromSnapshot); the final pass orders them by
// count all the same. perm and tmp have one entry per row; buckets one
// more than the largest space.
func sortRows(vecs []uint32, w int, counts []int64, colSpace []int, spaces []space, perm, tmp, buckets []int32) []int32 {
	for x := range perm {
		perm[x] = int32(x)
	}
	for j := w - 1; j >= 0; j-- {
		bk := buckets[:len(spaces[colSpace[j]].vals)+1]
		clear(bk)
		for _, p := range perm {
			bk[vecs[int(p)*w+j]+1]++
		}
		for x := 1; x < len(bk); x++ {
			bk[x] += bk[x-1]
		}
		for _, p := range perm {
			key := vecs[int(p)*w+j]
			tmp[bk[key]] = p
			bk[key]++
		}
		perm, tmp = tmp, perm
	}
	for x := 1; x < len(perm); x++ {
		p, y := perm[x], x
		vec := vecs[int(p)*w : int(p+1)*w]
		for ; y > 0 && counts[perm[y-1]] > counts[p] && slices.Equal(vecs[int(perm[y-1])*w:int(perm[y-1]+1)*w], vec); y-- {
			perm[y] = perm[y-1]
		}
		perm[y] = p
	}
	return perm
}

// digest feeds the canonical encoding to SHA-256 in blocks: big-endian
// words and length-prefixed strings, the same bytes in the same order as
// one Write per word.
type digest struct {
	h   hash.Hash
	n   int
	buf [1024]byte
}

func (d *digest) u64(v uint64) {
	if d.n+8 > len(d.buf) {
		d.flush()
	}
	binary.BigEndian.PutUint64(d.buf[d.n:], v)
	d.n += 8
}

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	for len(s) > 0 {
		if d.n == len(d.buf) {
			d.flush()
		}
		c := copy(d.buf[d.n:], s)
		d.n += c
		s = s[c:]
	}
}

func (d *digest) flush() {
	d.h.Write(d.buf[:d.n])
	d.n = 0
}

func (d *digest) sum(out []byte) []byte {
	d.flush()
	return d.h.Sum(out)
}

// hasher is FNV-1a over uint64 words: cheap, deterministic across runs and
// platforms, and good enough for refinement colors (the final fingerprint
// uses SHA-256, so refinement collisions cost discrimination, not
// soundness). It is a value type so the refinement inner loop hashes on
// the stack, allocation-free.
type hasher struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newHasher() hasher { return hasher{h: fnvOffset} }

// writeUint hashes v's 8 bytes, least significant first.
func (x *hasher) writeUint(v uint64) { x.h = fnvWord(x.h, v) }

// fnvWord continues the FNV-1a state h over v's 8 bytes, least
// significant first.
func fnvWord(h, v uint64) uint64 {
	h = (h ^ v&0xff) * fnvPrime
	h = (h ^ v>>8&0xff) * fnvPrime
	h = (h ^ v>>16&0xff) * fnvPrime
	h = (h ^ v>>24&0xff) * fnvPrime
	h = (h ^ v>>32&0xff) * fnvPrime
	h = (h ^ v>>40&0xff) * fnvPrime
	h = (h ^ v>>48&0xff) * fnvPrime
	return (h ^ v>>56) * fnvPrime
}

func (x *hasher) sum() uint64 { return x.h }

func hashStrings(parts ...string) uint64 {
	h := newHasher()
	for _, p := range parts {
		h.writeUint(uint64(len(p)))
		for i := 0; i < len(p); i++ {
			h.writeUint(uint64(p[i]))
		}
	}
	return h.sum()
}
