package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/canon"
)

// parent is testdata/parent.json: what cmd/bench measured before the
// table. Entry keys are name|family|method|cache|params and speedup keys
// family|params|variant; Instances maps each quick-sweep case to the
// content hash of the instance its old site built.
var parent struct {
	Quick, Full struct{ Entries, Speedups []string }
	Instances   map[string]string
}

func loadParent(t *testing.T) {
	data, err := os.ReadFile("testdata/parent.json")
	if err == nil {
		err = json.Unmarshal(data, &parent)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestNamesMatchParent holds both sweeps to the entry fields and speedup
// keys cmd/bench wrote before the table, so baselines keep matching. Only
// families that wrote no entries then may add entries: cache wrote
// speedups only.
func TestNamesMatchParent(t *testing.T) {
	loadParent(t)
	added := map[string]bool{"cache": true, "core": true, "ablation": true, "ext": true, "api": true}
	for quick, want := range map[bool]struct{ Entries, Speedups []string }{true: parent.Quick, false: parent.Full} {
		var entries, speedups []string
		seen := map[string]bool{}
		for _, c := range Cases() {
			if !c.In(quick) {
				continue
			}
			if seen[c.Name] {
				t.Errorf("quick=%v: two cases named %s", quick, c.Name)
			}
			seen[c.Name] = true
			if v := c.Versus; v != nil {
				speedups = append(speedups, v.Family+"|"+v.Params+"|"+v.Variant)
			}
			if !added[c.Family] {
				entries = append(entries, c.Name+"|"+c.Family+"|"+c.Method+"|"+c.Cache+"|"+c.Params)
			}
		}
		for _, set := range [][2][]string{{entries, want.Entries}, {speedups, want.Speedups}} {
			slices.Sort(set[0])
			slices.Sort(set[1])
			if !slices.Equal(set[0], set[1]) {
				t.Errorf("quick=%v:\n got  %q\n want %q", quick, set[0], set[1])
			}
		}
	}
}

// TestCases sets every quick-sweep case up and runs its operation once,
// so every workload's answer check runs under plain go test and -race. It
// also holds each case's instance to the one its old site built: the hash
// is the SHA-256 of the instance's parts in field order, the canonical
// fingerprint of each bag set, the schema's text and the bytes.
func TestCases(t *testing.T) {
	loadParent(t)
	for _, c := range Cases() {
		if !c.Quick {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			run, err := c.Setup()
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := run.Close(); err != nil {
					t.Error(err)
				}
			}()
			if _, err := run.Op(); err != nil {
				t.Error(err)
			}
			in := run.Instance
			var sets [][]*bag.Bag
			if in.R != nil {
				sets = append(sets, []*bag.Bag{in.R, in.S})
			}
			if in.Coll != nil {
				sets = append(sets, in.Coll.Bags())
			}
			for _, c := range in.Colls {
				sets = append(sets, c.Bags())
			}
			if in.Global != nil {
				sets = append(sets, []*bag.Bag{in.Global})
			}
			if len(in.Rels) > 0 {
				sets = append(sets, nil)
				for _, r := range in.Rels {
					sets[len(sets)-1] = append(sets[len(sets)-1], r.Bag())
				}
			}
			h := sha256.New()
			for _, bags := range sets {
				can, err := canon.Bags(bags)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(can.FP[:])
			}
			if in.Schema != nil {
				h.Write([]byte(in.Schema.String()))
			}
			h.Write(in.Bytes)
			if got, want := hex.EncodeToString(h.Sum(nil)), parent.Instances[c.Name]; got != want {
				t.Errorf("instance hash %s, want %s", got, want)
			}
		})
	}
}
