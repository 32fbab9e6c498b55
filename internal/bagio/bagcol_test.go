package bagio

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/canon"
	"bagconsistency/pkg/bagconsist"
)

// colSample exercises shared attributes (B appears in both bags, so the
// decoded bags share one dictionary) and multi-digit multiplicities.
const colSample = `
bag r
schema A B
a b : 2
a c : 1
x y : 7

bag s
schema B C
b x : 2
c x : 11
`

func mustParse(t *testing.T, text string) []NamedBag {
	t.Helper()
	bags, err := ParseCollection(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return bags
}

func encodeCol(t *testing.T, name string, bags []NamedBag) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeColumnar(&buf, name, bags); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func canonText(t *testing.T, bags []NamedBag) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCollection(&buf, bags); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func fingerprint(t *testing.T, bags []NamedBag) canon.Fingerprint {
	t.Helper()
	bs := make([]*bag.Bag, len(bags))
	for i := range bags {
		bs[i] = bags[i].Bag
	}
	c, err := canon.Bags(bs)
	if err != nil {
		t.Fatal(err)
	}
	return c.FP
}

func TestColumnarRoundTrip(t *testing.T) {
	bags := mustParse(t, colSample)
	data := encodeCol(t, "inst", bags)
	name, got, err := DecodeColumnar(data)
	if err != nil {
		t.Fatal(err)
	}
	if name != "inst" {
		t.Fatalf("collection name %q, want %q", name, "inst")
	}
	if want, have := canonText(t, bags), canonText(t, got); want != have {
		t.Fatalf("text after round trip differs:\n%s\nvs\n%s", want, have)
	}
	// Shared attribute B must decode to one shared dictionary, so the
	// engine's cross-bag remaps are identity.
	rCols := got[0].Bag.View().Cols
	sCols := got[1].Bag.View().Cols
	if rCols[1] != sCols[0] { // r is over {A,B}, s over {B,C}; B is r's col 1 and s's col 0
		t.Fatal("bags sharing attribute B do not share a dictionary after decode")
	}
}

// TestColumnarFingerprintPinned is the cache-compatibility contract: the
// canonical fingerprint of a bagcol-decoded instance is bit-for-bit the
// fingerprint of the text-parsed instance, so persisted stores and result
// caches keyed before this format existed keep serving hits. The literal
// digest also pins the canon encoding itself across PRs.
func TestColumnarFingerprintPinned(t *testing.T) {
	textBags := mustParse(t, colSample)
	_, colBags, err := DecodeColumnar(encodeCol(t, "", textBags))
	if err != nil {
		t.Fatal(err)
	}
	fpText := fingerprint(t, textBags)
	fpCol := fingerprint(t, colBags)
	if fpText != fpCol {
		t.Fatalf("fingerprint mismatch:\ntext:   %s\nbagcol: %s", fpText, fpCol)
	}
	const pinned = "791497abfa6915ec2be89dd37c54ca3b78cd9c28806c8df055c48ffef23421f9"
	if fpText.String() != pinned {
		t.Fatalf("pinned fingerprint drifted: got %s, want %s", fpText, pinned)
	}
}

// TestColumnarPropertyRandom round-trips random instances through
// text → bagcol → engine and text → JSON (both wire shapes) → engine, and
// asserts every arm is indistinguishable from the direct text → engine
// path: equal canonical fingerprints, equal check verdicts,
// byte-identical WriteCollection output. The bagcol and JSON arms share
// one dictionary per attribute across bags; the text arm does not.
func TestColumnarPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	attrPool := []string{"A", "B", "C", "D", "E"}
	checker := bagconsist.New()
	for trial := 0; trial < 60; trial++ {
		var text strings.Builder
		nbags := 1 + rng.Intn(3)
		for bi := 0; bi < nbags; bi++ {
			w := 1 + rng.Intn(3)
			start := rng.Intn(len(attrPool) - w + 1)
			attrs := attrPool[start : start+w]
			fmt.Fprintf(&text, "bag b%d\nschema %s\n", bi, strings.Join(attrs, " "))
			ntuples := rng.Intn(12)
			for ti := 0; ti < ntuples; ti++ {
				for c := 0; c < w; c++ {
					fmt.Fprintf(&text, "v%d ", rng.Intn(6))
				}
				fmt.Fprintf(&text, ": %d\n", 1+rng.Intn(9))
			}
		}
		textBags := mustParse(t, text.String())
		_, colBags, err := DecodeColumnar(encodeCol(t, "", textBags))
		if err != nil {
			t.Fatalf("trial %d: %v\ninput:\n%s", trial, err, text.String())
		}
		var arr, obj bytes.Buffer
		if err := EncodeJSON(&arr, textBags); err != nil {
			t.Fatal(err)
		}
		if err := EncodeJSONCollection(&obj, "inst", textBags); err != nil {
			t.Fatal(err)
		}
		arrBags, err := DecodeJSON(&arr)
		if err != nil {
			t.Fatalf("trial %d: json array: %v", trial, err)
		}
		name, objBags, err := DecodeJSONCollection(&obj)
		if err != nil || name != "inst" {
			t.Fatalf("trial %d: json object: name %q, %v", trial, name, err)
		}
		collT, errT := ToCollection(textBags)
		var repT *bagconsist.Report
		if errT == nil {
			repT, errT = checker.CheckGlobal(context.Background(), collT)
		}
		for arm, got := range map[string][]NamedBag{"bagcol": colBags, "json array": arrBags, "json object": objBags} {
			if want, have := canonText(t, textBags), canonText(t, got); want != have {
				t.Fatalf("trial %d %s: canonical text differs:\n%s\nvs\n%s", trial, arm, want, have)
			}
			if fpT, fp := fingerprint(t, textBags), fingerprint(t, got); fpT != fp {
				t.Fatalf("trial %d %s: fingerprints differ: %s vs %s", trial, arm, fpT, fp)
			}
			coll, err := ToCollection(got)
			var rep *bagconsist.Report
			if err == nil {
				rep, err = checker.CheckGlobal(context.Background(), coll)
			}
			if (errT == nil) != (err == nil) {
				t.Fatalf("trial %d %s: check errors disagree: %v vs %v", trial, arm, errT, err)
			}
			if errT == nil && repT.Consistent != rep.Consistent {
				t.Fatalf("trial %d %s: verdicts disagree: text=%v %s=%v", trial, arm, repT.Consistent, arm, rep.Consistent)
			}
		}
	}
}

// TestJSONZeroCountValuesDoNotFingerprint: a count-0 tuple is dropped
// before its values are interned, so values found only in such tuples
// leave no trace in the shared dictionaries or the fingerprint.
func TestJSONZeroCountValuesDoNotFingerprint(t *testing.T) {
	with := `[{"schema":["A","B"],"tuples":[{"values":["a","b"],"count":2},{"values":["ghost","b"],"count":0}]},` +
		`{"schema":["B"],"tuples":[{"values":["b"],"count":2},{"values":["phantom"],"count":0}]}]`
	without := `[{"schema":["A","B"],"tuples":[{"values":["a","b"],"count":2}]},{"schema":["B"],"tuples":[{"values":["b"],"count":2}]}]`
	got, err := DecodeJSON(strings.NewReader(with))
	if err != nil {
		t.Fatal(err)
	}
	want, err := DecodeJSON(strings.NewReader(without))
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, got) != fingerprint(t, want) {
		t.Fatal("count-0 tuples changed the fingerprint")
	}
	for _, d := range got[0].Bag.View().Cols {
		if d.Len() != 1 {
			t.Fatalf("dictionary holds %d values, want 1: count-0 values were interned", d.Len())
		}
	}
}

// TestJSONSharedDictionaryGrowth: Add on one decoded bag grows the
// dictionary it shares with its sibling; the sibling's rows are ids, so
// its fingerprint and verdicts do not change.
func TestJSONSharedDictionaryGrowth(t *testing.T) {
	body := `[{"schema":["A","B"],"tuples":[{"values":["a1","b1"],"count":2},{"values":["a2","b2"],"count":1}]},` +
		`{"schema":["B","C"],"tuples":[{"values":["b1","c1"],"count":2},{"values":["b2","c2"],"count":1}]}]`
	bags, err := DecodeJSON(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r, s := bags[0].Bag, bags[1].Bag
	shared := s.View().Cols[0]
	if r.View().Cols[1] != shared {
		t.Fatal("r and s do not share B's dictionary")
	}
	checker := bagconsist.New()
	ctx := context.Background()
	before, err := canon.Bags([]*bag.Bag{s})
	if err != nil {
		t.Fatal(err)
	}
	repBefore, err := checker.CheckPair(ctx, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Add([]string{"a9", "b9"}, 3); err != nil {
		t.Fatal(err)
	}
	if _, ok := shared.Lookup("b9"); !ok {
		t.Fatal("Add on r did not grow the shared dictionary")
	}
	after, err := canon.Bags([]*bag.Bag{s})
	if err != nil {
		t.Fatal(err)
	}
	if before.FP != after.FP {
		t.Fatal("growing a shared dictionary changed the sibling's fingerprint")
	}
	single, err := bagconsist.New().CheckGlobal(ctx, mustCollection(t, s))
	if err != nil || !single.Consistent {
		t.Fatalf("sibling alone: %+v, %v", single, err)
	}
	repAfter, err := checker.CheckPair(ctx, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if !repBefore.Consistent || repAfter.Consistent {
		t.Fatalf("verdicts before/after = %v/%v, want true/false (r gained a B value s lacks)", repBefore.Consistent, repAfter.Consistent)
	}
	fresh, err := DecodeJSON(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := checker.CheckPair(ctx, fresh[0].Bag, s); err != nil || !rep.Consistent {
		t.Fatalf("s against a fresh r: %+v, %v; want consistent", rep, err)
	}
}

// TestJSONSharedDictionaryConcurrentGrowth: one goroutine grows a shared
// dictionary through Add on one decoded bag while others fingerprint and
// enumerate its sibling. The dictionary is append-only and locked, so
// the readers see the sibling unchanged (run under -race).
func TestJSONSharedDictionaryConcurrentGrowth(t *testing.T) {
	bags, err := DecodeJSON(strings.NewReader(pairJSONText(t, colSample)))
	if err != nil {
		t.Fatal(err)
	}
	r, s := bags[0].Bag, bags[1].Bag
	want, err := canon.Bags([]*bag.Bag{s})
	if err != nil {
		t.Fatal(err)
	}
	wantText := s.String()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := r.Add([]string{"a" + strconv.Itoa(i), "b" + strconv.Itoa(i)}, 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := canon.Bags([]*bag.Bag{s})
				if err != nil || got.FP != want.FP || s.String() != wantText {
					t.Errorf("sibling changed while its shared dictionary grew (err %v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func mustCollection(t *testing.T, bs ...*bag.Bag) *bagconsist.Collection {
	t.Helper()
	nbs := make([]NamedBag, len(bs))
	for i, b := range bs {
		nbs[i] = NamedBag{Bag: b}
	}
	c, err := ToCollection(nbs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOpenMappedEquivalence: the mmap decode and the pure-reader decode
// of the same file are indistinguishable.
func TestOpenMappedEquivalence(t *testing.T) {
	bags := mustParse(t, colSample)
	data := encodeCol(t, "mapped", bags)
	path := filepath.Join(t.TempDir(), "inst.bagcol")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	mc, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if runtime.GOOS == "linux" || runtime.GOOS == "darwin" {
		if !mc.Mapped {
			t.Error("expected an mmap-backed decode on this platform")
		}
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rdName, rdBags, err := DecodeColumnarReader(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if mc.Name != rdName || mc.Name != "mapped" {
		t.Fatalf("names differ: mmap %q, reader %q", mc.Name, rdName)
	}
	if want, have := canonText(t, rdBags), canonText(t, mc.Bags); want != have {
		t.Fatalf("mmap and reader decodes differ:\n%s\nvs\n%s", want, have)
	}
	if fpM, fpR := fingerprint(t, mc.Bags), fingerprint(t, rdBags); fpM != fpR {
		t.Fatalf("mmap and reader fingerprints differ: %s vs %s", fpM, fpR)
	}
	if err := mc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mc.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestColumnarTruncation: every proper prefix of a valid file must fail
// cleanly (no panic, no success).
func TestColumnarTruncation(t *testing.T) {
	data := encodeCol(t, "inst", mustParse(t, colSample))
	for n := 0; n < len(data); n++ {
		if _, _, err := DecodeColumnar(data[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(data))
		}
	}
}

// TestColumnarBitFlips: CRC framing (plus the magic and zero-padding
// rules) must catch every single-byte corruption.
func TestColumnarBitFlips(t *testing.T) {
	data := encodeCol(t, "inst", mustParse(t, colSample))
	mutated := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		copy(mutated, data)
		mutated[i] ^= 0x5a
		if _, _, err := DecodeColumnar(mutated); err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", i, len(data))
		}
	}
}

// hostileFile builds a structurally valid bagcol file by hand (correct
// CRCs, so corruption checks pass) and lets one knob be twisted to
// produce semantically hostile sections.
type hostileKnobs struct {
	dictIdx     uint32 // bag column 0's dictionary reference
	rowID       uint32 // first id of row 0
	count       int64  // multiplicity of row 0
	dupRow      bool   // write row 0 twice
	dupDictVal  bool   // dictionary repeats a value
	trailing    []byte // appended after the last section
	secondAttr  string // attr of dict 1 (dup/ordering attacks)
	swapColumns bool   // reference dicts in non-canonical order
}

func buildHostile(t testing.TB, k hostileKnobs) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := &colWriter{w: bufio.NewWriter(&buf)}
	cw.raw([]byte(MagicColumnar))
	cw.begin()
	cw.u32(0) // flags
	cw.u32(2) // ndicts
	cw.u32(1) // nbags
	cw.str("")
	cw.end()
	writeDict := func(attr string, vals []string) {
		cw.begin()
		cw.str(attr)
		cw.u32(uint32(len(vals)))
		off := uint32(0)
		cw.u32(off)
		for _, v := range vals {
			off += uint32(len(v))
			cw.u32(off)
		}
		for _, v := range vals {
			cw.raw([]byte(v))
		}
		cw.pad(4)
		cw.end()
	}
	v2 := "v2"
	if k.dupDictVal {
		v2 = "v1"
	}
	secondAttr := "B"
	if k.secondAttr != "" {
		secondAttr = k.secondAttr
	}
	writeDict("A", []string{"v1", v2})
	writeDict(secondAttr, []string{"w1"})

	nrows := 2
	if k.dupRow {
		nrows = 3
	}
	cw.begin()
	cw.str("r")
	cw.u32(2) // nattrs
	if k.swapColumns {
		cw.u32(1)
		cw.u32(0)
	} else {
		cw.u32(k.dictIdx)
		cw.u32(1)
	}
	cw.pad(8)
	cw.u64(uint64(nrows))
	cw.u32s([]uint32{k.rowID, 0})
	cw.u32s([]uint32{1, 0})
	if k.dupRow {
		cw.u32s([]uint32{k.rowID, 0})
	}
	cw.pad(8)
	counts := []int64{k.count, 1}
	if k.dupRow {
		counts = append(counts, 1)
	}
	cw.i64s(counts)
	cw.end()
	if cw.err != nil {
		t.Fatal(cw.err)
	}
	if err := cw.w.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.Write(k.trailing)
	return buf.Bytes()
}

func TestColumnarHostileSections(t *testing.T) {
	valid := hostileKnobs{dictIdx: 0, rowID: 0, count: 5}
	if _, _, err := DecodeColumnar(buildHostile(t, valid)); err != nil {
		t.Fatalf("baseline hostile-builder file must decode: %v", err)
	}
	cases := []struct {
		name string
		k    hostileKnobs
		want string
	}{
		{"dict id out of range", hostileKnobs{dictIdx: 0, rowID: 99, count: 5}, "out of range"},
		{"dict index out of range", hostileKnobs{dictIdx: 7, rowID: 0, count: 5}, "references dictionary"},
		{"zero count", hostileKnobs{count: 0}, "non-positive multiplicity"},
		{"negative count", hostileKnobs{count: -3}, "non-positive multiplicity"},
		{"duplicate rows", hostileKnobs{count: 5, dupRow: true}, "duplicates"},
		{"duplicate dict value", hostileKnobs{count: 5, dupDictVal: true}, "repeats value"},
		{"trailing bytes", hostileKnobs{count: 5, trailing: []byte{1, 2, 3}}, "trailing"},
		{"duplicate dict attr", hostileKnobs{count: 5, secondAttr: "A"}, "duplicates attribute"},
		{"non-canonical column order", hostileKnobs{count: 5, swapColumns: true}, "canonical order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeColumnar(buildHostile(t, tc.k))
			if err == nil {
				t.Fatal("hostile file decoded successfully")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestColumnarHostileHeaders: length fields claiming more than the input
// holds must fail before any proportional allocation happens.
func TestColumnarHostileHeaders(t *testing.T) {
	base := encodeCol(t, "", mustParse(t, "bag r\nschema A\nx : 1\n"))
	patch := func(off int, v uint32) []byte {
		d := append([]byte(nil), base...)
		d[off] = byte(v)
		d[off+1] = byte(v >> 8)
		d[off+2] = byte(v >> 16)
		d[off+3] = byte(v >> 24)
		return d
	}
	// Offsets into the fixed header: magic(8) flags(4) → ndicts at 12,
	// nbags at 16, nameLen at 20.
	for name, data := range map[string][]byte{
		"huge ndicts":  patch(12, 0xffffffff),
		"huge nbags":   patch(16, 0xffffffff),
		"huge nameLen": patch(20, 0xfffffff0),
	} {
		if _, _, err := DecodeColumnar(data); err == nil {
			t.Fatalf("%s: decoded successfully", name)
		}
	}
}

// TestDecodeColumnarAllocs pins the zero-copy claim: decoding scales its
// allocation count with relations and distinct values, not with tuples.
// Growing the instance 10x in tuples (same schema, same value domain)
// must leave the number of allocations essentially unchanged.
func TestDecodeColumnarAllocs(t *testing.T) {
	build := func(tuples int) []byte {
		var text strings.Builder
		text.WriteString("bag r\nschema A B\n")
		for i := 0; i < tuples; i++ {
			fmt.Fprintf(&text, "a%d b%d : 1\n", i%100, (i/100)%100)
		}
		bags := mustParse(t, text.String())
		return encodeCol(t, "", bags)
	}
	measure := func(data []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, _, err := DecodeColumnar(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(build(1_000))
	large := measure(build(10_000))
	t.Logf("allocs/decode: %d tuples: %.0f, %d tuples: %.0f", 1_000, small, 10_000, large)
	if large > small+32 {
		t.Fatalf("allocation count grows with tuples: %.0f at 1k vs %.0f at 10k", small, large)
	}
	if large > 300 {
		t.Fatalf("decode allocates %.0f times; want O(relations + distinct values)", large)
	}
}

func TestLoadFileFormats(t *testing.T) {
	bags := mustParse(t, colSample)
	dir := t.TempDir()
	want := canonText(t, bags)

	textPath := filepath.Join(dir, "inst.txt")
	if err := os.WriteFile(textPath, []byte(colSample), 0o644); err != nil {
		t.Fatal(err)
	}
	colPath := filepath.Join(dir, "inst.bagcol")
	if err := os.WriteFile(colPath, encodeCol(t, "n", bags), 0o644); err != nil {
		t.Fatal(err)
	}
	var jsonBuf bytes.Buffer
	if err := EncodeJSON(&jsonBuf, bags); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "inst.json")
	if err := os.WriteFile(jsonPath, jsonBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{textPath, colPath, jsonPath} {
		_, got, closer, err := LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if have := canonText(t, got); have != want {
			t.Fatalf("%s: decoded text differs:\n%s\nvs\n%s", path, have, want)
		}
		closer.Close()
	}
}
