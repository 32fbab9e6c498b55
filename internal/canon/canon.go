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
	"slices"
	"strings"
	"sync"

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
// and ranks indexed by space id. The hash functions, refinement schedule,
// tie-breaking, and final encoding are those of the original string-keyed
// implementation, so fingerprints are bit-for-bit identical (the
// reference property test pins this).
func Bags(bags []*bag.Bag) (*Canonical, error) {
	if len(bags) == 0 {
		return nil, fmt.Errorf("canon: empty instance")
	}
	views := make([]bag.View, len(bags))
	attrs := make([][]string, len(bags))
	nrefs, ncols := 0, 0
	for i, b := range bags {
		if b == nil {
			return nil, fmt.Errorf("canon: nil bag at index %d", i)
		}
		views[i] = b.View()
		attrs[i] = views[i].Schema.Attrs()
		nrefs += len(views[i].Rows.IDs)
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
	color := getU64s(nv)
	defer putU64s(color)
	for k := range spaces {
		sp := &spaces[k]
		c0 := hashStrings("attr", sp.attr)
		for g := sp.base; g < sp.base+len(sp.vals); g++ {
			color[g] = c0
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
	occ := getU64s(nrefs)
	defer putU64s(occ)
	scratch := getU64s(nv)
	defer putU64s(scratch)
	distinct := countDistinct(color, scratch)
	// The partition refines monotonically (old color is folded into the
	// new one), so it stabilizes after at most |values| strict
	// refinements.
	for round := 0; round <= nv; round++ {
		copy(cur, off[:nv])
		r0 := 0
		for i, v := range views {
			w := v.Rows.W
			for r, count := range v.Rows.Counts {
				row := refs[r0+r*w : r0+(r+1)*w]
				h := newHasher()
				h.writeUint(uint64(i))
				h.writeUint(uint64(count))
				for _, g := range row {
					h.writeUint(color[g])
				}
				th := h.sum()
				for _, g := range row {
					occ[cur[g]] = th
					cur[g]++
				}
			}
			r0 += len(v.Rows.IDs)
		}
		for g := 0; g < nv; g++ {
			hs := occ[off[g]:off[g+1]]
			slices.Sort(hs)
			h := newHasher()
			h.writeUint(color[g])
			for _, x := range hs {
				h.writeUint(x)
			}
			color[g] = h.sum()
		}
		if d := countDistinct(color, scratch); d == distinct {
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
	for k := range spaces {
		sp := &spaces[k]
		n, base := len(sp.vals), sp.base
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
	enc := digest{h: sha256.New()}
	enc.u64(uint64(len(views)))
	r0 = 0
	for i, v := range views {
		enc.u64(uint64(len(attrs[i])))
		for _, a := range attrs[i] {
			enc.str(a)
		}
		w, n := v.Rows.W, v.Rows.N()
		stride := w + 1
		block := getU64s(n * stride)
		for r, count := range v.Rows.Counts {
			vec := block[r*stride : (r+1)*stride]
			for j, g := range refs[r0+r*w : r0+(r+1)*w] {
				vec[j] = uint64(rankOf[g])
			}
			vec[w] = uint64(count)
		}
		perm := table.GetInt32s(n)
		for x := range perm {
			perm[x] = int32(x)
		}
		slices.SortFunc(perm, func(a, b int32) int {
			return slices.Compare(block[int(a)*stride:int(a+1)*stride], block[int(b)*stride:int(b+1)*stride])
		})
		enc.u64(uint64(n))
		for _, p := range perm {
			for _, x := range block[int(p)*stride : int(p+1)*stride] {
				enc.u64(x)
			}
		}
		table.PutInt32s(perm)
		putU64s(block)
		r0 += len(v.Rows.IDs)
	}
	enc.sum(can.FP[:0])
	return can, nil
}

// countDistinct counts the distinct colors across every attribute space
// (matching the string-keyed implementation, which counted over the whole
// valueRef universe at once). scratch must hold all colors.
func countDistinct(colors, scratch []uint64) int {
	all := scratch[:len(colors)]
	copy(all, colors)
	slices.Sort(all)
	d := 0
	for i, v := range all {
		if i == 0 || all[i-1] != v {
			d++
		}
	}
	return d
}

var u64Pool = sync.Pool{New: func() any { s := make([]uint64, 0, 256); return &s }}

func getU64s(n int) []uint64 {
	p := u64Pool.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	return (*p)[:n]
}

func putU64s(s []uint64) {
	s = s[:0]
	u64Pool.Put(&s)
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

const fnvPrime = 1099511628211

func newHasher() hasher { return hasher{h: 14695981039346656037} }

// writeUint hashes v's 8 bytes, least significant first.
func (x *hasher) writeUint(v uint64) {
	h := x.h
	h = (h ^ v&0xff) * fnvPrime
	h = (h ^ v>>8&0xff) * fnvPrime
	h = (h ^ v>>16&0xff) * fnvPrime
	h = (h ^ v>>24&0xff) * fnvPrime
	h = (h ^ v>>32&0xff) * fnvPrime
	h = (h ^ v>>40&0xff) * fnvPrime
	h = (h ^ v>>48&0xff) * fnvPrime
	h = (h ^ v>>56) * fnvPrime
	x.h = h
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
