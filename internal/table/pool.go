package table

import "sync"

// Pooled scratch buffers for the sort/group/remap passes, for network
// construction in internal/core and for canon's refinement rounds.
// Steady-state hot paths (repeated marginals, pair networks, refinement
// rounds) allocate nothing once the pools are warm.

// slicePool recycles []T buffers. A buffer travels through bufs as a
// *[]T header, and the header of a buffer handed out goes back through
// headers for the next Put to reuse, so a warm Get/Put cycle allocates
// nothing (storing a fresh &s on every Put would allocate a header each
// time).
type slicePool[T any] struct {
	bufs    sync.Pool // *[]T holding a buffer
	headers sync.Pool // *[]T whose buffer has been handed out
}

func (p *slicePool[T]) get(n int) []T {
	h, _ := p.bufs.Get().(*[]T)
	if h == nil {
		return make([]T, n, max(n, 256))
	}
	s := *h
	*h = nil
	p.headers.Put(h)
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (p *slicePool[T]) put(s []T) {
	h, _ := p.headers.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s[:0]
	p.bufs.Put(h)
}

var (
	int32Pool slicePool[int32]
	u32Pool   slicePool[uint32]
	i64Pool   slicePool[int64]
	u64Pool   slicePool[uint64]
	rowsPool  = sync.Pool{New: func() any { return &Rows{} }}
)

// GetInt32s returns a pooled []int32 of length n (contents undefined).
func GetInt32s(n int) []int32 { return int32Pool.get(n) }

// PutInt32s recycles a buffer from GetInt32s.
func PutInt32s(s []int32) { int32Pool.put(s) }

// GetUint32s returns a pooled []uint32 of length n (contents undefined).
func GetUint32s(n int) []uint32 { return u32Pool.get(n) }

// PutUint32s recycles a buffer from GetUint32s.
func PutUint32s(s []uint32) { u32Pool.put(s) }

// GetInt64s returns a pooled []int64 of length n (contents undefined).
func GetInt64s(n int) []int64 { return i64Pool.get(n) }

// PutInt64s recycles a buffer from GetInt64s.
func PutInt64s(s []int64) { i64Pool.put(s) }

// GetUint64s returns a pooled []uint64 of length n (contents undefined).
func GetUint64s(n int) []uint64 { return u64Pool.get(n) }

// PutUint64s recycles a buffer from GetUint64s.
func PutUint64s(s []uint64) { u64Pool.put(s) }

// GetRows returns a pooled scratch Rows reset to width w.
func GetRows(w int) *Rows {
	r := rowsPool.Get().(*Rows)
	r.Reset(w)
	return r
}

// PutRows recycles a scratch Rows.
func PutRows(r *Rows) {
	rowsPool.Put(r)
}
