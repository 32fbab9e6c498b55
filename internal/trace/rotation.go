package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Rotation names and retains a numbered family of entries in one
// directory: the slow-trace log's rotated files and the flight
// recorder's capture directories. An entry is named prefix, a six-digit
// sequence number, and optionally "-" and a tag. Numbering resumes after
// the highest entry already on disk, so a restart never overwrites one,
// and Prune keeps only the newest retain entries.
//
// Next must not run concurrently with itself. Entries and Prune touch
// only the directory, never the sequence, so they need no lock.
type Rotation struct {
	dir    string
	prefix string
	retain int
	seq    int // last sequence number handed out
}

// NewRotation scans dir for existing entries and returns a rotation
// whose next number follows the highest one found.
func NewRotation(dir, prefix string, retain int) *Rotation {
	r := &Rotation{dir: dir, prefix: prefix, retain: retain}
	if names := r.Entries(); len(names) > 0 {
		r.seq, _ = r.parse(names[len(names)-1])
	}
	return r
}

// Next reserves the next sequence number and returns it with the entry
// name for it (tag "" omits the "-tag" suffix). The caller creates the
// entry under the rotation's directory.
func (r *Rotation) Next(tag string) (name string, seq int) {
	r.seq++
	name = fmt.Sprintf("%s%06d", r.prefix, r.seq)
	if tag != "" {
		name += "-" + tag
	}
	return name, r.seq
}

// Entries lists the entries on disk by base name, oldest first. An
// unreadable directory lists as empty.
func (r *Rotation) Entries() []string {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if _, ok := r.parse(e.Name()); ok {
			names = append(names, e.Name())
		}
	}
	sort.Slice(names, func(i, j int) bool {
		a, _ := r.parse(names[i])
		b, _ := r.parse(names[j])
		return a < b
	})
	return names
}

// Prune removes the oldest entries beyond the retain count and returns
// one error per entry it failed to remove.
func (r *Rotation) Prune() []error {
	var errs []error
	names := r.Entries()
	for len(names) > r.retain {
		if err := os.RemoveAll(filepath.Join(r.dir, names[0])); err != nil {
			errs = append(errs, err)
		}
		names = names[1:]
	}
	return errs
}

// parse extracts the sequence number from an entry name.
func (r *Rotation) parse(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, r.prefix)
	if !ok {
		return 0, false
	}
	num, _, _ := strings.Cut(rest, "-")
	seq, err := strconv.Atoi(num)
	if err != nil || seq < 1 {
		return 0, false
	}
	return seq, true
}
