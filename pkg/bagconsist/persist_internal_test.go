package bagconsist

import (
	"encoding/hex"
	"reflect"
	"testing"
)

func codecCases() []*cachedResult {
	return []*cachedResult{
		{consistent: false, method: "pairwise-refuted", bags: 3},
		{consistent: true, method: "marginal", bags: 2},
		{
			consistent: true, method: "integer-program", bags: 3,
			nodes: 12345, witnessSupport: 2,
			witnessAttrs: []string{"A", "B", "C"},
			witnessRows: []cachedRow{
				{indices: []int{0, 1, 2}, count: 3},
				{indices: []int{2, 0, 1}, count: 1},
			},
		},
		{
			// A present-but-empty witness (consistent empty instance class)
			// must round-trip distinct from "no witness".
			consistent: true, method: "acyclic-jointree", bags: 4,
			witnessAttrs: []string{"X"},
			witnessRows:  nil,
		},
	}
}

func TestPayloadCodecRoundTrip(t *testing.T) {
	for i, cr := range codecCases() {
		enc := encodePayload(cr)
		dec, err := decodePayload(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		// Normalize the nil-vs-empty rows distinction the codec does not
		// (and need not) preserve.
		if len(dec.witnessRows) == 0 {
			dec.witnessRows = nil
		}
		want := *cr
		if len(want.witnessRows) == 0 {
			want.witnessRows = nil
		}
		if !reflect.DeepEqual(*dec, want) {
			t.Fatalf("case %d: round trip\n got %+v\nwant %+v", i, *dec, want)
		}
	}
}

// TestPayloadDecodeRejectsGarbage drives the decoder through truncations
// and mutations of valid payloads: it must return errors, never panic,
// and never over-allocate (the length() bound).
func TestPayloadDecodeRejectsGarbage(t *testing.T) {
	for i, cr := range codecCases() {
		enc := encodePayload(cr)
		for cut := 0; cut < len(enc); cut++ {
			if _, err := decodePayload(enc[:cut]); err == nil {
				t.Fatalf("case %d: truncation at %d accepted", i, cut)
			}
		}
		grown := append(append([]byte(nil), enc...), 0x00)
		if _, err := decodePayload(grown); err == nil {
			t.Fatalf("case %d: trailing byte accepted", i)
		}
	}
	if _, err := decodePayload(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	// A huge claimed collection length must be rejected by the remaining-
	// bytes bound before any allocation.
	bad := []byte{payloadVersion, payloadFlagWitness | payloadFlagConsistent,
		2, 0, 0, 0, 1, 'm', 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}
	if _, err := decodePayload(bad); err == nil {
		t.Fatal("absurd attr count accepted")
	}
}

// TestPayloadBytesUnchanged pins the encoding of CheckGlobal results to
// the bytes earlier releases wrote, so persisted stores keep decoding to
// the same answers. The retired max-flow value slot is written as 0 and
// skipped on read, whatever an older record holds there.
func TestPayloadBytesUnchanged(t *testing.T) {
	want := map[string]string{
		"pairwise-refuted": "0100030000001070616972776973652d72656675746564",
		"integer-program":  "010303b96000020f696e74656765722d70726f6772616d03014101420143020300010201020001",
		"acyclic-jointree": "01030400000010616379636c69632d6a6f696e7472656501015800",
	}
	for _, cr := range codecCases() {
		w, ok := want[cr.method]
		if !ok {
			continue
		}
		if got := hex.EncodeToString(encodePayload(cr)); got != w {
			t.Errorf("%s: payload %s, want %s", cr.method, got, w)
		}
	}
	// Version 1, consistent, 2 bags, 0 nodes, flow value 17, support 0,
	// method "max-flow": a pair record of an earlier release.
	legacy := append([]byte{payloadVersion, payloadFlagConsistent, 2, 0, 17, 0, 8}, "max-flow"...)
	cr, err := decodePayload(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.consistent || cr.method != "max-flow" || cr.bags != 2 {
		t.Fatalf("legacy payload decoded as %+v", *cr)
	}
}

// TestStoreKeyDistinguishesKindAndOptions: every key carries the global
// kind byte and the options hash earlier releases wrote, and different
// options give different keys.
func TestStoreKeyDistinguishesKindAndOptions(t *testing.T) {
	c1 := defaultConfig()
	c2 := defaultConfig()
	c2.maxNodes = 99
	var fp [32]byte
	fp[0] = 7
	k1 := storeKey(c1.optionsKey(), fp)
	k2 := storeKey(c2.optionsKey(), fp)
	if k1.Kind != 2 || k2.Kind != 2 {
		t.Fatalf("kind bytes %d and %d, want 2 (global)", k1.Kind, k2.Kind)
	}
	if k1.OptsHash != 0xb4e0e3bab266768c {
		t.Fatalf("default options hash %#x drifted", k1.OptsHash)
	}
	if k1 == k2 {
		t.Fatal("different options share a store key")
	}
}
