package table

import (
	"strconv"
	"sync"
	"testing"
)

// DictFromSnapshot adopts a decoded value table without building the
// value→id map; string-keyed operations must materialize it lazily and
// behave exactly like a dictionary built by interning.
func TestDictFromSnapshotLazy(t *testing.T) {
	vals := []string{"a", "b", "c"}
	d := DictFromSnapshot(vals)
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	if got := d.Value(1); got != "b" {
		t.Fatalf("Value(1) = %q", got)
	}
	if id, ok := d.Lookup("c"); !ok || id != 2 {
		t.Fatalf("Lookup(c) = %d, %v", id, ok)
	}
	if id := d.Intern("b"); id != 1 {
		t.Fatalf("Intern(existing b) = %d, want 1", id)
	}
	if id := d.Intern("d"); id != 3 {
		t.Fatalf("Intern(new d) = %d, want 3", id)
	}
	if id, ok := d.Lookup("d"); !ok || id != 3 {
		t.Fatalf("Lookup(d) after intern = %d, %v", id, ok)
	}
}

// Interning into a snapshot dict before any Lookup must not duplicate an
// existing value (the lazy index has to materialize first).
func TestDictFromSnapshotInternFirst(t *testing.T) {
	d := DictFromSnapshot([]string{"x", "y"})
	if id := d.Intern("x"); id != 0 {
		t.Fatalf("Intern(x) = %d, want 0", id)
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d after re-interning existing value", d.Len())
	}
}

// A clone taken before the lazy index materializes must still answer
// lookups correctly (a nil index means "not built", never "empty").
func TestDictFromSnapshotCloneLazy(t *testing.T) {
	d := DictFromSnapshot([]string{"p", "q"})
	c := d.Clone()
	if id := c.Intern("p"); id != 0 {
		t.Fatalf("clone Intern(p) = %d, want 0", id)
	}
	if c.Len() != 2 {
		t.Fatalf("clone Len = %d", c.Len())
	}
	// The original is unaffected by the clone's operations.
	if id := d.Intern("r"); id != 2 {
		t.Fatalf("original Intern(r) = %d, want 2", id)
	}
	if _, ok := c.Lookup("r"); ok {
		t.Fatal("clone sees value interned into the original")
	}
}

// Remap between a snapshot dict and an interned dict exercises Lookup's
// lazy materialization under the read path used by engine joins.
func TestDictFromSnapshotRemap(t *testing.T) {
	from := DictFromSnapshot([]string{"a", "b"})
	to := NewDict()
	to.Intern("b")
	out := Remap(from, to)
	if out[0] != MissingID || out[1] != 0 {
		t.Fatalf("Remap = %v", out)
	}
}

// InternBytes agrees with Intern — on a snapshot dict whose index is
// still lazy, too — keeps its own copy of a new value (decoders hand it
// slices of a request body), and is safe beside concurrent Intern calls
// on the same dictionary.
func TestDictInternBytes(t *testing.T) {
	d := DictFromSnapshot([]string{"x", "y"})
	if id := d.InternBytes([]byte("y")); id != 1 || d.Len() != 2 {
		t.Fatalf("InternBytes(existing y) = %d with Len %d, want 1 with 2", id, d.Len())
	}
	buf := []byte("z")
	if id := d.InternBytes(buf); id != 2 {
		t.Fatalf("InternBytes(new z) = %d, want 2", id)
	}
	buf[0] = 'q'
	if got := d.Value(2); got != "z" {
		t.Fatalf("Value(2) = %q after the caller reused its bytes, want %q", got, "z")
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := "v" + strconv.Itoa(i%50)
				if g%2 == 0 {
					d.InternBytes([]byte(v))
				} else {
					d.Intern(v)
				}
			}
		}()
	}
	wg.Wait()
	if d.Len() != 3+50 {
		t.Fatalf("Len = %d after concurrent interning of 50 values, want %d", d.Len(), 3+50)
	}
	for i := 0; i < 50; i++ {
		v := "v" + strconv.Itoa(i)
		id, ok := d.Lookup(v)
		if !ok || d.Value(id) != v || d.InternBytes([]byte(v)) != id {
			t.Fatalf("%q: id %d (found %v) does not round-trip", v, id, ok)
		}
	}
}
