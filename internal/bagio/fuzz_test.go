package bagio

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzParseCollection checks that arbitrary input never panics the parser
// and that anything it accepts survives a write/parse round trip.
func FuzzParseCollection(f *testing.F) {
	f.Add(sample)
	f.Add("bag x\nschema A\nv : 3\n")
	f.Add("bag x\nschema\n: 5\n")
	f.Add("schema A\n")
	f.Add("bag x\nschema A B\n1 2\n1 2 : 9\n# comment\n")
	f.Add(": : :")
	// ": <count>" multiplicity edge cases: zero counts, counts at and past
	// the int64 boundary, a colon with no count, a count with no colon, a
	// value that is itself almost a colon, and repeated tuples whose
	// multiplicities must accumulate.
	f.Add("bag x\nschema A\nv : 0\n")
	f.Add("bag x\nschema A\nv : 9223372036854775807\n")
	f.Add("bag x\nschema A\nv : 9223372036854775808\n")
	f.Add("bag x\nschema A\nv :\n")
	f.Add("bag x\nschema A\nv 3\n")
	f.Add("bag x\nschema A B\n:: 2 : 4\n")
	f.Add("bag x\nschema A\nv : 2\nv : 3\n")
	f.Add("bag x\nschema A\nv : 1 : 2\n")
	f.Add("bag x\nschema A\nv : +3\n")
	f.Add("bag x\nschema A\nv : 03\n")
	f.Fuzz(func(t *testing.T, input string) {
		bags, err := ParseCollection(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCollection(&buf, bags); err != nil {
			t.Fatalf("write of parsed input failed: %v", err)
		}
		back, err := ParseCollection(&buf)
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v\noutput: %q", err, buf.String())
		}
		if len(back) != len(bags) {
			t.Fatalf("round trip changed bag count %d -> %d", len(bags), len(back))
		}
		for i := range bags {
			if back[i].Name != bags[i].Name || !back[i].Bag.Equal(bags[i].Bag) {
				t.Fatalf("bag %d changed in round trip", i)
			}
		}
	})
}

// FuzzDecodeJSON is the decoder's differential suite: on any input the
// hand-written JSON decoder must agree with the encoding/json oracle
// (json_test.go) in both entry points — the same accept/reject outcome,
// except that only the decoder rejects trailing bytes and repeated
// fields, and on accepted bodies the same names, schemas, bags and
// fingerprints.
func FuzzDecodeJSON(f *testing.F) {
	for _, tc := range jsonCases {
		if len(tc.body) < 1024 { // the depth-limit bodies stay in the table test
			f.Add(tc.body)
		}
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkJSONDecoder(t, input)
	})
}

// FuzzDecodeAny checks the format-sniffing decoder never panics and that
// whatever it accepts re-encodes as JSON and decodes back unchanged. The
// faithfulness property is scoped to valid UTF-8: the text format is
// byte-oriented, but JSON strings are UTF-8 by contract, so encoding
// replaces invalid bytes with U+FFFD (the corpus keeps a seed pinning
// that boundary); such inputs must still encode and re-decode cleanly.
func FuzzDecodeAny(f *testing.F) {
	f.Add(sample)
	f.Add(`[{"name":"r","schema":["A"],"tuples":[{"values":["x"],"count":2}]}]`)
	f.Add(`{"name":"pair","bags":[{"schema":["A"],"tuples":[]}]}`)
	f.Add(`{"bags":null}`)
	f.Add("  \n\t[\n]")
	f.Add(`[{"schema":["A"],"tuples":[{"values":["x"],"count":0}]}]`)
	f.Add(`[{"schema":["A"],"tuples":[{"values":[":"],"count":1}]}]`)
	f.Add(`[{"schema":["A"],"tuples":[{"values":["a b"],"count":1}]}]`)
	// Binary bagcol seeds: the sniffer must route magic-prefixed bodies to
	// the columnar decoder and reject mutants without panicking.
	for _, seed := range columnarSeeds(f) {
		f.Add(string(seed))
	}
	f.Fuzz(func(t *testing.T, input string) {
		name, bags, err := DecodeAny(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeJSONCollection(&buf, name, bags); err != nil {
			t.Fatalf("encode of decoded input failed: %v", err)
		}
		backName, back, err := DecodeJSONCollection(&buf)
		if err != nil {
			t.Fatalf("re-decode of own output failed: %v", err)
		}
		if !utf8.ValidString(input) {
			return
		}
		if backName != name || len(back) != len(bags) {
			t.Fatalf("round trip changed name %q->%q or count %d->%d", name, backName, len(bags), len(back))
		}
		for i := range bags {
			if back[i].Name != bags[i].Name || !back[i].Bag.Equal(bags[i].Bag) {
				t.Fatalf("bag %d changed in round trip", i)
			}
		}
	})
}

// columnarSeeds builds the bagcol fuzz corpus: a well-formed instance plus
// the attack shapes the decoder must reject — truncated header, corrupted
// section CRC, and a row id pointing past its dictionary.
func columnarSeeds(f *testing.F) [][]byte {
	f.Helper()
	bags, err := ParseCollection(strings.NewReader(colSample))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeColumnar(&buf, "fuzzcoll", bags); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	crcFlip := append([]byte(nil), valid...)
	crcFlip[len(crcFlip)/2] ^= 0x40
	return [][]byte{
		valid,
		valid[:len(MagicColumnar)],    // bare magic, no header
		valid[:len(MagicColumnar)+10], // truncated mid-header
		valid[:len(valid)-3],          // truncated mid-final-section
		crcFlip,                       // corrupted section payload
		buildHostile(f, hostileKnobs{rowID: 99, count: 1}),  // dict id out of range
		buildHostile(f, hostileKnobs{dictIdx: 7, count: 1}), // dict index out of range
	}
}

// FuzzDecodeColumnar checks the binary decoder on raw bytes: it must never
// panic or over-allocate on hostile length prefixes, and any instance it
// accepts must re-encode and decode back to byte-identical canonical text.
func FuzzDecodeColumnar(f *testing.F) {
	for _, seed := range columnarSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		name, bags, err := DecodeColumnar(data)
		if err != nil {
			return
		}
		var text1 bytes.Buffer
		if err := WriteCollection(&text1, bags); err != nil {
			t.Fatalf("text encode of decoded instance failed: %v", err)
		}
		var enc bytes.Buffer
		if err := EncodeColumnar(&enc, name, bags); err != nil {
			t.Fatalf("re-encode of decoded instance failed: %v", err)
		}
		backName, back, err := DecodeColumnar(enc.Bytes())
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if backName != name || len(back) != len(bags) {
			t.Fatalf("round trip changed name %q->%q or count %d->%d", name, backName, len(bags), len(back))
		}
		var text2 bytes.Buffer
		if err := WriteCollection(&text2, back); err != nil {
			t.Fatalf("text encode after round trip failed: %v", err)
		}
		if !bytes.Equal(text1.Bytes(), text2.Bytes()) {
			t.Fatalf("canonical text changed across round trip:\n%s\n----\n%s", text1.Bytes(), text2.Bytes())
		}
	})
}
