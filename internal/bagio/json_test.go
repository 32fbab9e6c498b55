package bagio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/canon"
)

// The encoding/json decode path the hand-written decoder replaced, kept
// as the differential oracle: json.Decoder for the bag array (it stops
// after the first value), json.Unmarshal for the named-collection object,
// then Add per tuple into fresh per-bag dictionaries.

func oracleFromJSONBags(arr []JSONBag) ([]NamedBag, error) {
	out := make([]NamedBag, 0, len(arr))
	for _, jb := range arr {
		s, err := bag.NewSchema(jb.Schema...)
		if err != nil {
			return nil, err
		}
		b := bag.New(s)
		for _, t := range jb.Tuples {
			if err := b.Add(t.Values, t.Count); err != nil {
				return nil, err
			}
		}
		out = append(out, NamedBag{Name: jb.Name, Bag: b})
	}
	return out, nil
}

func oracleDecodeJSON(data []byte) ([]NamedBag, error) {
	var arr []JSONBag
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&arr); err != nil {
		return nil, err
	}
	return oracleFromJSONBags(arr)
}

func oracleDecodeJSONCollection(data []byte) (string, []NamedBag, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '{' {
		var jc JSONCollection
		if err := json.Unmarshal(trimmed, &jc); err != nil {
			return "", nil, err
		}
		bags, err := oracleFromJSONBags(jc.Bags)
		return jc.Name, bags, err
	}
	bags, err := oracleDecodeJSON(data)
	return "", bags, err
}

// trailingBytes reports whether data's first JSON value is complete and
// followed by something other than whitespace: the oracle's array path
// answers such a body for its first value alone.
func trailingBytes(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	var v json.RawMessage
	if dec.Decode(&v) != nil {
		return false
	}
	return len(bytes.Trim(data[dec.InputOffset():], " \t\r\n")) > 0
}

// Roles of JSON values in the wire shapes, for repeatedField.
const (
	roleOther = iota
	roleCollection
	roleBags
	roleBag
	roleTuples
	roleTuple
)

// repeatedField reports whether some wire object of data gives one of its
// fields twice, comparing keys after case folding (the oracle merges the
// second into the elements the first decoded).
func repeatedField(data []byte, arrayOnly bool) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	fields := map[int][]string{
		roleCollection: {"name", "bags"},
		roleBag:        {"name", "schema", "tuples"},
		roleTuple:      {"values", "count"},
	}
	child := map[[2]string]int{
		{"coll", "bags"}: roleBags, {"bag", "tuples"}: roleTuples,
	}
	roleName := map[int]string{roleCollection: "coll", roleBag: "bag"}
	var walk func(role int) (bool, error)
	walk = func(role int) (bool, error) {
		tok, err := dec.Token()
		if err != nil {
			return false, err
		}
		delim, ok := tok.(json.Delim)
		if !ok {
			return false, nil
		}
		switch delim {
		case '[':
			elem := roleOther
			switch role {
			case roleBags:
				elem = roleBag
			case roleTuples:
				elem = roleTuple
			}
			for dec.More() {
				if rep, err := walk(elem); rep || err != nil {
					return rep, err
				}
			}
		case '{':
			seen := map[string]bool{}
			for dec.More() {
				tok, err := dec.Token()
				if err != nil {
					return false, err
				}
				key := tok.(string)
				valRole := roleOther
				for _, f := range fields[role] {
					if strings.EqualFold(key, f) {
						if seen[f] {
							return true, nil
						}
						seen[f] = true
						valRole = child[[2]string{roleName[role], f}]
					}
				}
				if rep, err := walk(valRole); rep || err != nil {
					return rep, err
				}
			}
		}
		_, err = dec.Token() // closing delimiter
		return false, err
	}
	top := roleBags
	if t := bytes.TrimLeft(data, " \t\r\n"); !arrayOnly && len(t) > 0 && t[0] == '{' {
		top = roleCollection
	}
	rep, _ := walk(top)
	return rep
}

// checkJSONDecoder decodes input with the decoder and with the oracle, in
// both entry points (the bag array alone, and either shape), and fails
// unless they agree: the same accept/reject outcome, except where the
// body has trailing bytes or a repeated field (which only the decoder
// rejects), and on accepted bodies equal names, schemas, bags and
// fingerprints.
func checkJSONDecoder(t *testing.T, input string) {
	t.Helper()
	data := []byte(input)
	for _, arrayOnly := range []bool{true, false} {
		var name, oName string
		var got, want []NamedBag
		var err, oErr error
		if arrayOnly {
			got, err = DecodeJSON(strings.NewReader(input))
			want, oErr = oracleDecodeJSON(data)
		} else {
			name, got, err = DecodeJSONCollection(strings.NewReader(input))
			oName, want, oErr = oracleDecodeJSONCollection(data)
		}
		if oErr != nil {
			if err == nil {
				t.Fatalf("arrayOnly=%v: decoder accepted what the oracle rejects (%v): %q", arrayOnly, oErr, input)
			}
			continue
		}
		if err != nil {
			if trailingBytes(data) || repeatedField(data, arrayOnly) {
				continue
			}
			t.Fatalf("arrayOnly=%v: decoder rejected what the oracle accepts: %v: %q", arrayOnly, err, input)
		}
		if name != oName || len(got) != len(want) {
			t.Fatalf("arrayOnly=%v: name %q / %d bags, oracle %q / %d bags: %q", arrayOnly, name, len(got), oName, len(want), input)
		}
		for i := range want {
			if got[i].Name != want[i].Name || !got[i].Bag.Schema().Equal(want[i].Bag.Schema()) || !got[i].Bag.Equal(want[i].Bag) {
				t.Fatalf("arrayOnly=%v: bag %d differs from the oracle's: %q", arrayOnly, i, input)
			}
		}
		if len(want) > 0 && jsonFingerprint(t, got) != jsonFingerprint(t, want) {
			t.Fatalf("arrayOnly=%v: fingerprint differs from the oracle's: %q", arrayOnly, input)
		}
	}
}

func jsonFingerprint(t *testing.T, bags []NamedBag) canon.Fingerprint {
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

// jsonCases are the decoder's quirks, each measured against encoding/json;
// they seed FuzzDecodeJSON too. wantErr is the decoder's verdict.
var jsonCases = []struct {
	name    string
	body    string
	wantErr bool
}{
	{"array shape", `[{"name":"r","schema":["A","B"],"tuples":[{"values":["a","b"],"count":2}]},{"schema":["B"],"tuples":[{"values":["b"],"count":2}]}]`, false},
	{"object shape", `{"name":"n","bags":[{"schema":["A"],"tuples":[{"values":["x"],"count":1}]}]}`, false},
	{"key folded", `[{"Schema":["A"],"TUPLES":[{"Values":["x"],"cOUNT":3}],"Name":"r"}]`, false},
	{"key folded long s", `[{"ſchema":["A"],"tuples":[{"values":["x"],"count":1}]}]`, false},
	{"key escaped", `[{"sch\u0065ma":["A"],"tuples":[{"values":["x"],"count":1}]}]`, false},
	{"unknown keys skipped", `{"x":{"y":[1,2.5e3,true,false,null,"s"]},"bags":[{"z":null,"schema":["A"],"tuples":[{"w":[],"values":["x"],"count":1}]}]}`, false},
	{"unknown key bad value", `[{"x":[1,],"schema":["A"],"tuples":[]}]`, true},
	{"tuples before schema", `[{"tuples":[{"values":["x","y"],"count":2}],"schema":["B","A"]}]`, false},
	{"tuples without schema", `[{"tuples":[{"values":[],"count":4}]}]`, false},
	{"escapes", `[{"schema":["A"],"tuples":[{"values":["a\/bé😀\n"],"count":1}]}]`, false},
	{"surrogate pair", `[{"schema":["A"],"tuples":[{"values":["\ud83d\ude00"],"count":1}]}]`, false},
	{"lone surrogate", `[{"schema":["A"],"tuples":[{"values":["\ud83d"],"count":1}]}]`, false},
	{"invalid utf8", "[{\"schema\":[\"A\"],\"tuples\":[{\"values\":[\"\xff\xfeok\"],\"count\":1}]}]", false},
	{"control char", "[{\"schema\":[\"A\"],\"tuples\":[{\"values\":[\"a\tb\"],\"count\":1}]}]", true},
	{"bad escape", `[{"schema":["A"],"tuples":[{"values":["\x"],"count":1}]}]`, true},
	{"null value", `[{"schema":["A"],"tuples":[{"values":[null],"count":1}]}]`, false},
	{"null fields", `[{"name":null,"schema":null,"tuples":null}]`, false},
	{"null tuple", `[{"schema":[],"tuples":[null]}]`, false},
	{"null tuple width mismatch", `[{"schema":["A"],"tuples":[null]}]`, true},
	{"null count", `[{"schema":["A"],"tuples":[{"values":["x"],"count":null}]}]`, false},
	{"count minus zero", `[{"schema":["A"],"tuples":[{"values":["x"],"count":-0}]}]`, false},
	{"count fraction", `[{"schema":["A"],"tuples":[{"values":["x"],"count":1.0}]}]`, true},
	{"count exponent", `[{"schema":["A"],"tuples":[{"values":["x"],"count":1e0}]}]`, true},
	{"count string", `[{"schema":["A"],"tuples":[{"values":["x"],"count":"1"}]}]`, true},
	{"count leading zero", `[{"schema":["A"],"tuples":[{"values":["x"],"count":01}]}]`, true},
	{"count 2^63", `[{"schema":["A"],"tuples":[{"values":["x"],"count":9223372036854775808}]}]`, true},
	{"count max", `[{"schema":["A"],"tuples":[{"values":["x"],"count":9223372036854775807}]}]`, false},
	{"count min", `[{"schema":["A"],"tuples":[{"values":["x"],"count":-9223372036854775808}]}]`, true},
	{"count negative", `[{"schema":["A"],"tuples":[{"values":["x"],"count":-1}]}]`, true},
	{"duplicate tuples summed", `[{"schema":["A"],"tuples":[{"values":["x"],"count":2},{"values":["y"],"count":1},{"values":["x"],"count":5}]}]`, false},
	{"duplicate tuples overflow", `[{"schema":["A"],"tuples":[{"values":["x"],"count":9223372036854775807},{"values":["x"],"count":1}]}]`, true},
	{"count zero", `[{"schema":["A"],"tuples":[{"values":["only-here"],"count":0},{"values":["x"],"count":1}]}]`, false},
	{"count zero width mismatch", `[{"schema":["A"],"tuples":[{"values":["x","y"],"count":0}]}]`, true},
	{"width mismatch", `[{"schema":["A"],"tuples":[{"values":["x","y"],"count":1}]}]`, true},
	{"duplicate attribute", `[{"schema":["A","A"],"tuples":[{"values":["x"],"count":1}]}]`, false},
	{"empty attribute", `[{"schema":[""],"tuples":[]}]`, true},
	{"null bag", `[null]`, false},
	{"empty array", `[]`, false},
	{"null body", `null`, false},
	{"null bags", `{"bags":null}`, false},
	{"empty object", `{}`, false},
	{"wrong type", `[{"schema":"A"}]`, true},
	{"string body", `"x"`, true},
	{"trailing garbage", `[] garbage`, true},
	{"trailing value", `[{"schema":["A"],"tuples":[]}] [1]`, true},
	{"trailing whitespace", "[] \r\n\t", false},
	{"repeated tuples", `[{"schema":["A"],"tuples":[{"values":["x"],"count":5},{"values":["z"],"count":2}],"tuples":[{"values":["y"]}]}]`, true},
	{"repeated bags", `{"name":"n","bags":[{"schema":["A"],"tuples":[{"values":["x"],"count":1}]}],"bags":[{"name":"q"}]}`, true},
	{"repeated folded", `[{"schema":["A"],"tuples":[{"values":["x"],"VALUES":["y"],"count":1}]}]`, true},
	{"repeated unknown key", `[{"x":1,"x":2,"schema":["A"],"tuples":[]}]`, false},
	{"deep unknown value", `[{"x":` + strings.Repeat("[", 9990) + strings.Repeat("]", 9990) + `}]`, false},
	{"too deep", `[{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}]`, true},
	{"truncated", `[{"schema":["A"],"tuples":[{"values":["x"],"count":1}`, true},
	{"empty body", ``, true},
}

// TestJSONDecoderMatchesOracle runs every quirk through the decoder and
// the encoding/json oracle in both entry points.
func TestJSONDecoderMatchesOracle(t *testing.T) {
	for _, tc := range jsonCases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := DecodeJSONCollection(strings.NewReader(tc.body))
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			checkJSONDecoder(t, tc.body)
		})
	}
}

// TestJSONDecoderSumsAndSkips pins the decoded contents where Add's rules
// decide them: repeated tuples sum, count-0 tuples are not interned, and
// tuples given before the schema land in the schema's column order.
func TestJSONDecoderSumsAndSkips(t *testing.T) {
	bags, err := DecodeJSON(strings.NewReader(`[{"tuples":[{"values":["a","b"],"count":2},{"values":["a","b"],"count":3},{"values":["z","z"],"count":0}],"schema":["B","A"]}]`))
	if err != nil {
		t.Fatal(err)
	}
	b := bags[0].Bag
	if got := b.Count([]string{"a", "b"}); got != 5 || b.Len() != 1 {
		t.Fatalf("count(a,b) = %d over %d rows, want 5 over 1", got, b.Len())
	}
	for _, d := range b.View().Cols {
		if _, ok := d.Lookup("z"); ok {
			t.Fatal("a count-0 tuple's value was interned")
		}
	}
}

// TestJSONDecoderSharesDictionaries: bags over a common attribute share
// one dictionary, as bagcol decoding makes them.
func TestJSONDecoderSharesDictionaries(t *testing.T) {
	bags, err := DecodeJSON(strings.NewReader(pairJSONText(t, colSample)))
	if err != nil {
		t.Fatal(err)
	}
	if bags[0].Bag.View().Cols[1] != bags[1].Bag.View().Cols[0] {
		t.Fatal("bags sharing attribute B do not share a dictionary after JSON decode")
	}
}

func pairJSONText(t testing.TB, text string) string {
	t.Helper()
	bags, err := ParseCollection(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, bags); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDecodeJSONAllocs is the JSON twin of TestDecodeColumnarAllocs:
// decoding allocates per bag and per distinct value, not per tuple, so
// growing the instance 10x in tuples over a fixed value domain leaves
// the allocation count essentially unchanged.
func TestDecodeJSONAllocs(t *testing.T) {
	// Tuples are staged in pooled buffers; a collection mid-measurement
	// would empty the pool and charge its refill to the larger body.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Row i = 100q + r is (a_r, b_(q+r) mod 100): distinct rows, and the
	// same 100 values per attribute at both sizes.
	build := func(tuples int) []byte {
		var text strings.Builder
		text.WriteString("bag r\nschema A B\n")
		for i := 0; i < tuples; i++ {
			fmt.Fprintf(&text, "a%d b%d : 1\n", i%100, (i/100+i)%100)
		}
		return []byte(pairJSONText(t, text.String()))
	}
	measure := func(data []byte) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := DecodeJSON(bytes.NewReader(data)); err != nil {
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
}
