package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Ring is a bounded circular buffer of completed trace snapshots, the
// backing store for the /debug/traces endpoint. Oldest entries are
// overwritten once the ring is full.
type Ring struct {
	mu   sync.Mutex
	buf  []*Snapshot
	next int
	full bool
}

// NewRing returns a ring holding up to capacity snapshots (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]*Snapshot, capacity)}
}

// Add stores a snapshot, evicting the oldest entry when full.
func (r *Ring) Add(s *Snapshot) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = s
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Snapshots returns the stored snapshots, newest first.
func (r *Ring) Snapshots() []*Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]*Snapshot, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Len returns the number of stored snapshots.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// SlowCapture keeps the traces of requests slower than a threshold: a
// dedicated ring for the /debug/traces?slow=1 view plus an optional
// NDJSON file so slow queries survive restarts alongside the instance
// fingerprints recorded in their spans. The file is size-bounded:
// when it crosses the rotation threshold it is renamed to
// <path>.NNNNNN and a fresh file opened in place, and only the newest
// retained rotations are kept — an unattended daemon can run for
// months without slow captures eating the data dir.
type SlowCapture struct {
	threshold time.Duration
	ring      *Ring

	mu       sync.Mutex
	f        *os.File
	enc      *json.Encoder
	errs     int
	path     string
	maxBytes int64
	retain   int
	rot      *Rotation // numbers and prunes <path>.NNNNNN; nil without a path
	rotated  int       // rotations performed this process (tests)
}

// SlowOption tunes a SlowCapture's file rotation.
type SlowOption func(*SlowCapture)

// DefaultSlowMaxBytes is the rotation threshold of the slow-trace
// NDJSON file: generous for post-mortems, harmless for a disk.
const DefaultSlowMaxBytes = 64 << 20

// DefaultSlowRetain is how many rotated slow-trace files are kept
// (the active file is always kept on top of these).
const DefaultSlowRetain = 4

// WithSlowMaxBytes sets the size threshold at which the NDJSON file
// rotates (n <= 0 keeps the default).
func WithSlowMaxBytes(n int64) SlowOption {
	return func(c *SlowCapture) {
		if n > 0 {
			c.maxBytes = n
		}
	}
}

// WithSlowRetain sets how many rotated files are retained (n < 0
// keeps the default; 0 deletes each rotation immediately).
func WithSlowRetain(n int) SlowOption {
	return func(c *SlowCapture) {
		if n >= 0 {
			c.retain = n
		}
	}
}

// NewSlowCapture captures snapshots with duration >= threshold into a
// ring of ringCap entries. If path is non-empty, captured snapshots are
// also appended to it as NDJSON (one snapshot per line); file errors are
// counted, not fatal — slow-query capture must never take the server
// down.
func NewSlowCapture(threshold time.Duration, ringCap int, path string, opts ...SlowOption) (*SlowCapture, error) {
	c := &SlowCapture{
		threshold: threshold,
		ring:      NewRing(ringCap),
		path:      path,
		maxBytes:  DefaultSlowMaxBytes,
		retain:    DefaultSlowRetain,
	}
	for _, o := range opts {
		o(c)
	}
	if path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		c.f = f
		c.enc = json.NewEncoder(f)
		c.rot = NewRotation(filepath.Dir(path), filepath.Base(path)+".", c.retain)
	}
	return c, nil
}

// Offer captures the snapshot if it crosses the threshold, reporting
// whether it did.
func (c *SlowCapture) Offer(s *Snapshot) bool {
	if c == nil || s == nil || time.Duration(s.DurationNs) < c.threshold {
		return false
	}
	c.ring.Add(s)
	c.mu.Lock()
	if c.enc != nil {
		if err := c.enc.Encode(s); err != nil {
			c.errs++
		} else if st, err := c.f.Stat(); err == nil && st.Size() >= c.maxBytes {
			// Rotate under the same lock that serializes writes: the
			// snapshot just encoded is complete in the file being rotated
			// out, and the next Offer writes to a fresh file — no capture
			// is ever split or dropped by rotation itself.
			c.rotate()
		}
	}
	c.mu.Unlock()
	return true
}

// rotate renames the active file to the next numbered rotation and
// reopens path fresh, then prunes rotations beyond the retention
// count. Caller holds c.mu. Errors are counted, never fatal.
func (c *SlowCapture) rotate() {
	if err := c.f.Close(); err != nil {
		c.errs++
	}
	name, _ := c.rot.Next("")
	if err := os.Rename(c.path, filepath.Join(filepath.Dir(c.path), name)); err != nil {
		c.errs++
	}
	f, err := os.OpenFile(c.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		// Without a fresh file the capture degrades to ring-only; errs
		// records that persistence is gone.
		c.f, c.enc = nil, nil
		c.errs++
		return
	}
	c.f, c.enc = f, json.NewEncoder(f)
	c.rotated++
	c.errs += len(c.rot.Prune())
}

// Rotations returns the number of file rotations performed by this
// process.
func (c *SlowCapture) Rotations() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rotated
}

// RotatedFiles returns the retained rotated file paths, oldest first.
func (c *SlowCapture) RotatedFiles() []string {
	if c == nil || c.rot == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	names := c.rot.Entries()
	for i, name := range names {
		names[i] = filepath.Join(filepath.Dir(c.path), name)
	}
	return names
}

// Ring returns the slow-trace ring.
func (c *SlowCapture) Ring() *Ring {
	if c == nil {
		return nil
	}
	return c.ring
}

// Errors returns the count of failed file writes.
func (c *SlowCapture) Errors() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errs
}

// Close releases the underlying file, if any.
func (c *SlowCapture) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f, c.enc = nil, nil
	return err
}
