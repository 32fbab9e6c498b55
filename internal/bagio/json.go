// The JSON wire decoder: one hand-written pass over the body for both wire
// shapes, the bag array and the {name, bags} object. Value tokens are
// interned straight from the body bytes into one dictionary per attribute
// name, which the request's bags share (as bagcol decoding does); no
// []JSONBag, []JSONTuple or per-tuple []string is built.
//
// It accepts what encoding/json decoding into those types accepts, with
// two exceptions: bytes other than whitespace after the top-level value,
// and a field given twice in one object, are errors. docs/FORMATS.md
// lists the rules; the encoding/json path is the test oracle.
package bagio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"unicode/utf8"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/table"
)

// maxJSONDepth is encoding/json's nesting limit, kept so that both accept
// the same bodies.
const maxJSONDepth = 10000

// The fields of the wire objects, as bits of a known-field mask.
const (
	fieldName = iota
	fieldBags
	fieldSchema
	fieldTuples
	fieldValues
	fieldCount
)

var fieldKeys = [...][]byte{
	fieldName:   []byte("name"),
	fieldBags:   []byte("bags"),
	fieldSchema: []byte("schema"),
	fieldTuples: []byte("tuples"),
	fieldValues: []byte("values"),
	fieldCount:  []byte("count"),
}

// matchField returns the field among known that key names, or -1. Like
// encoding/json, a key matches exactly or under Unicode case folding
// ("Schema", "ſchema").
func matchField(key []byte, known uint) int {
	for f, name := range fieldKeys {
		if known&(1<<f) != 0 && bytes.EqualFold(key, name) {
			return f
		}
	}
	return -1
}

type jsonDecoder struct {
	data  []byte
	pos   int
	dicts map[string]*table.Dict // one per attribute name, shared by the bags
	vals  []span                 // the current tuple's value tokens
	row   []uint32
}

// span locates a string token's value: data[start:end] verbatim, or, when
// esc is set, the quoted token to unquote with encoding/json (it holds an
// escape or invalid UTF-8). The zero span is null's value, "".
type span struct {
	start, end int
	esc        bool
}

// decodeJSON decodes a body in either wire shape; arrayOnly refuses the
// named-collection object, as DecodeJSON always has.
func decodeJSON(data []byte, arrayOnly bool) (string, []NamedBag, error) {
	d := &jsonDecoder{data: data, dicts: make(map[string]*table.Dict)}
	c, err := d.peek()
	if err != nil {
		return "", nil, err
	}
	var name string
	var bags []NamedBag
	if c == '{' && !arrayOnly {
		err = d.object(1, 1<<fieldName|1<<fieldBags, func(f int, c byte) error {
			if f == fieldName {
				return d.stringOrNull(c, &name)
			}
			var berr error
			bags, berr = d.bags(2, c)
			return berr
		})
	} else {
		bags, err = d.bags(1, c)
	}
	if err != nil {
		return "", nil, err
	}
	d.skipSpace()
	if d.pos < len(d.data) {
		return "", nil, d.syntaxError("after top-level value")
	}
	return name, bags, nil
}

// bags reads an array of bag objects (or null) whose first byte is c.
func (d *jsonDecoder) bags(depth int, c byte) ([]NamedBag, error) {
	if c == 'n' {
		return nil, d.literal("null")
	}
	if c != '[' {
		return nil, d.typeError("an array of bags")
	}
	var out []NamedBag
	err := d.array(depth, func(c byte) error {
		nb, err := d.bag(depth+1, c)
		out = append(out, nb)
		return err
	})
	return out, err
}

// pendingBag is a bag being decoded: its schema and shared columns once
// known, and its tuples with positive counts staged in a pooled buffer,
// so that the bag is built once, at its exact size.
type pendingBag struct {
	s    *bag.Schema
	cols []*table.Dict
	rows *table.Rows
}

// bag reads one bag object; null is the bag over the empty schema with no
// tuples. Tuples given before the schema are validated, then read once
// the object has closed.
func (d *jsonDecoder) bag(depth int, c byte) (NamedBag, error) {
	var nb NamedBag
	p := pendingBag{rows: table.GetRows(0)}
	defer table.PutRows(p.rows)
	var err error
	switch c {
	case 'n':
		err = d.literal("null")
	case '{':
		tuplesAt := -1
		err = d.object(depth, 1<<fieldName|1<<fieldSchema|1<<fieldTuples, func(f int, c byte) error {
			switch f {
			case fieldName:
				return d.stringOrNull(c, &nb.Name)
			case fieldSchema:
				attrs, err := d.stringList(depth+1, c)
				if err == nil {
					err = d.schema(&p, attrs)
				}
				return err
			}
			if p.s != nil {
				return d.tuples(&p, depth+1, c)
			}
			tuplesAt = d.pos
			return d.skip(depth+1, c)
		})
		if err == nil && p.s == nil {
			err = d.schema(&p, nil)
		}
		if err == nil && tuplesAt >= 0 {
			end := d.pos
			d.pos = tuplesAt
			err = d.tuples(&p, depth+1, d.data[tuplesAt])
			d.pos = end
		}
	default:
		return nb, d.typeError("a bag object")
	}
	if err == nil && p.s == nil {
		err = d.schema(&p, nil)
	}
	if err != nil {
		return nb, err
	}
	// Repeated tuples sum here, as Add sums them.
	if nb.Bag, err = bag.NewShared(p.s, p.cols, p.rows.N()); err != nil {
		return nb, err
	}
	for i := 0; i < p.rows.N(); i++ {
		if err := nb.Bag.AddIDs(p.rows.Row(i), p.rows.Counts[i]); err != nil {
			return nb, err
		}
	}
	return nb, nil
}

// schema sets p's schema to attrs and its columns to the request's
// dictionaries for them.
func (d *jsonDecoder) schema(p *pendingBag, attrs []string) error {
	s, err := bag.NewSchema(attrs...)
	if err != nil {
		return err
	}
	names := s.Attrs()
	cols := make([]*table.Dict, len(names))
	for j, a := range names {
		if cols[j] = d.dicts[a]; cols[j] == nil {
			cols[j] = table.NewDict()
			d.dicts[a] = cols[j]
		}
	}
	p.s, p.cols = s, cols
	p.rows.Reset(len(cols))
	return nil
}

// tuples reads a bag's tuple array (or null) into p.
func (d *jsonDecoder) tuples(p *pendingBag, depth int, c byte) error {
	if c == 'n' {
		return d.literal("null")
	}
	if c != '[' {
		return d.typeError("an array of tuples")
	}
	return d.array(depth, func(c byte) error {
		return d.tuple(p, depth+1, c)
	})
}

// tuple reads one tuple object (null is no values and count 0) and
// treats it as Add would: the count is checked, then the width, a count
// of 0 drops the tuple, and only a kept tuple is interned and staged.
func (d *jsonDecoder) tuple(p *pendingBag, depth int, c byte) error {
	d.vals = d.vals[:0]
	var count int64
	switch c {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	case '{':
		err := d.object(depth, 1<<fieldValues|1<<fieldCount, func(f int, c byte) error {
			if f == fieldCount {
				var err error
				count, err = d.count(c)
				return err
			}
			return d.values(depth+1, c)
		})
		if err != nil {
			return err
		}
	default:
		return d.typeError("a tuple object")
	}
	row := slices.Grow(d.row[:0], len(d.vals))[:len(d.vals)]
	d.row = row
	if len(row) == len(p.cols) {
		if count == 0 {
			return nil
		}
		if count > 0 {
			for j, sp := range d.vals {
				if !sp.esc {
					row[j] = p.cols[j].InternBytes(d.data[sp.start:sp.end])
					continue
				}
				var v string
				if err := json.Unmarshal(d.data[sp.start:sp.end], &v); err != nil {
					return err
				}
				row[j] = p.cols[j].Intern(v)
			}
			p.rows.Append(row, count)
			return nil
		}
	}
	// Add rejects this tuple; an empty bag over the schema says why.
	b, err := bag.NewShared(p.s, p.cols, 0)
	if err == nil {
		err = b.AddIDs(row, count)
	}
	return err
}

// values records a tuple's value tokens (an array of strings or nulls, or
// null) in d.vals.
func (d *jsonDecoder) values(depth int, c byte) error {
	if c == 'n' {
		return d.literal("null")
	}
	if c != '[' {
		return d.typeError("an array of values")
	}
	return d.array(depth, func(c byte) error {
		switch c {
		case 'n':
			d.vals = append(d.vals, span{})
			return d.literal("null")
		case '"':
			sp, err := d.str()
			d.vals = append(d.vals, sp)
			return err
		}
		return d.typeError("a string value")
	})
}

// count reads a multiplicity: an int64 integer literal or null. As for
// encoding/json's int64, "-0" reads as 0 and a fraction, an exponent, a
// string or an overflow is an error.
func (d *jsonDecoder) count(c byte) (int64, error) {
	if c == 'n' {
		return 0, d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return 0, d.typeError("an int64 count")
	}
	start := d.pos
	isInt, err := d.number()
	if err != nil {
		return 0, err
	}
	tok := d.data[start:d.pos]
	digits := bytes.TrimPrefix(tok, []byte("-"))
	neg := len(digits) < len(tok)
	var n uint64 // magnitude, at most 2^63
	for _, ch := range digits {
		if !isInt || n > (1<<63)/10 {
			isInt = false
			break
		}
		if n = n*10 + uint64(ch-'0'); n > 1<<63 {
			isInt = false
			break
		}
	}
	if !isInt || n == 1<<63 && !neg {
		return 0, fmt.Errorf("bagio: json: cannot decode number %s into an int64 count (offset %d)", tok, start)
	}
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}

// stringList reads an array of strings or nulls, or null.
func (d *jsonDecoder) stringList(depth int, c byte) ([]string, error) {
	if c == 'n' {
		return nil, d.literal("null")
	}
	if c != '[' {
		return nil, d.typeError("an array of strings")
	}
	var out []string
	err := d.array(depth, func(c byte) error {
		var s string
		err := d.stringOrNull(c, &s)
		out = append(out, s)
		return err
	})
	return out, err
}

// stringOrNull reads a string into dst; null leaves dst unchanged, as
// encoding/json does.
func (d *jsonDecoder) stringOrNull(c byte, dst *string) error {
	switch c {
	case 'n':
		return d.literal("null")
	case '"':
		sp, err := d.str()
		if err != nil {
			return err
		}
		if !sp.esc {
			*dst = string(d.data[sp.start:sp.end])
			return nil
		}
		return json.Unmarshal(d.data[sp.start:sp.end], dst)
	}
	return d.typeError("a string")
}

// array reads the array at d.pos, calling elem with the first byte of each
// element and d.pos on it. depth is the array's nesting depth.
func (d *jsonDecoder) array(depth int, elem func(c byte) error) error {
	if depth > maxJSONDepth {
		return fmt.Errorf("bagio: json: exceeded max depth (offset %d)", d.pos)
	}
	d.pos++ // '['
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(c); err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
			if c, err = d.peek(); err != nil {
				return err
			}
		case ']':
			d.pos++
			return nil
		default:
			return d.syntaxError("after array element")
		}
	}
}

// object reads the object at d.pos, calling member with the field a key
// names among known, and with the first byte of its value and d.pos on
// it. Unknown keys' values are validated and skipped; a known field named
// twice is an error. depth is the object's nesting depth.
func (d *jsonDecoder) object(depth int, known uint, member func(f int, c byte) error) error {
	if depth > maxJSONDepth {
		return fmt.Errorf("bagio: json: exceeded max depth (offset %d)", d.pos)
	}
	d.pos++ // '{'
	c, err := d.peek()
	if err != nil {
		return err
	}
	if c == '}' {
		d.pos++
		return nil
	}
	var seen uint
	for {
		if c != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		key, err := d.key()
		if err != nil {
			return err
		}
		f := matchField(key, known)
		if f >= 0 {
			if seen&(1<<f) != 0 {
				return fmt.Errorf("bagio: json: field %q given twice in one object (offset %d)", fieldKeys[f], d.pos)
			}
			seen |= 1 << f
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		if c != ':' {
			return d.syntaxError("after object key")
		}
		d.pos++
		if c, err = d.peek(); err != nil {
			return err
		}
		if f >= 0 {
			err = member(f, c)
		} else {
			err = d.skip(depth+1, c)
		}
		if err != nil {
			return err
		}
		if c, err = d.peek(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.pos++
			if c, err = d.peek(); err != nil {
				return err
			}
		case '}':
			d.pos++
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// key reads an object key and returns it unquoted.
func (d *jsonDecoder) key() ([]byte, error) {
	sp, err := d.str()
	if err != nil || !sp.esc {
		return d.data[sp.start:sp.end], err
	}
	var k string
	if err := json.Unmarshal(d.data[sp.start:sp.end], &k); err != nil {
		return nil, err
	}
	return []byte(k), nil
}

// skip validates and skips the value whose first byte is c.
func (d *jsonDecoder) skip(depth int, c byte) error {
	switch {
	case c == '{':
		return d.object(depth, 0, nil)
	case c == '[':
		return d.array(depth, func(c byte) error { return d.skip(depth+1, c) })
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.syntaxError("looking for beginning of value")
}

// str scans the string token at d.pos, checking it as encoding/json's
// scanner does: no control characters, only valid escapes.
func (d *jsonDecoder) str() (span, error) {
	start := d.pos
	esc, ascii := false, true
	for i := start + 1; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			if esc || !ascii && !utf8.Valid(d.data[start+1:i]) {
				return span{start: start, end: i + 1, esc: true}, nil
			}
			return span{start: start + 1, end: i}, nil
		case c == '\\':
			esc = true
			if i+1 >= len(d.data) {
				return span{}, d.eof()
			}
			switch d.data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(d.data) {
						return span{}, d.eof()
					}
					if !isHex(d.data[k]) {
						d.pos = k
						return span{}, d.syntaxError("in \\u hexadecimal character escape")
					}
				}
				i += 6
			default:
				d.pos = i + 1
				return span{}, d.syntaxError("in string escape code")
			}
		case c < 0x20:
			d.pos = i
			return span{}, d.syntaxError("in string literal")
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			i++
		}
	}
	return span{}, d.eof()
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number scans a number token at d.pos by the JSON grammar and reports
// whether it is an integer (no fraction, no exponent).
func (d *jsonDecoder) number() (bool, error) {
	i := d.pos
	if d.data[i] == '-' {
		i++
	}
	digits := func() int {
		n := 0
		for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
			i++
			n++
		}
		return n
	}
	bad := func() error {
		if i >= len(d.data) {
			return d.eof()
		}
		d.pos = i
		return d.syntaxError("in numeric literal")
	}
	switch {
	case i < len(d.data) && d.data[i] == '0':
		i++
	case digits() == 0:
		return false, bad()
	}
	isInt := true
	if i < len(d.data) && d.data[i] == '.' {
		isInt = false
		i++
		if digits() == 0 {
			return false, bad()
		}
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		isInt = false
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		if digits() == 0 {
			return false, bad()
		}
	}
	d.pos = i
	return isInt, nil
}

// literal consumes the literal lit (true, false or null) at d.pos.
func (d *jsonDecoder) literal(lit string) error {
	for k := 0; k < len(lit); k++ {
		if d.pos >= len(d.data) {
			return d.eof()
		}
		if d.data[d.pos] != lit[k] {
			return d.syntaxError("in literal " + lit)
		}
		d.pos++
	}
	return nil
}

func (d *jsonDecoder) skipSpace() {
	i := d.pos
	for ; i < len(d.data); i++ {
		if c := d.data[i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			break
		}
	}
	d.pos = i
}

// peek skips whitespace and returns the next byte.
func (d *jsonDecoder) peek() (byte, error) {
	d.skipSpace()
	if d.pos >= len(d.data) {
		return 0, d.eof()
	}
	return d.data[d.pos], nil
}

func (d *jsonDecoder) eof() error {
	return fmt.Errorf("bagio: json: unexpected end of input")
}

func (d *jsonDecoder) syntaxError(context string) error {
	return fmt.Errorf("bagio: json: invalid character %q %s (offset %d)", d.data[d.pos], context, d.pos)
}

// typeError reports a well-formed value of the wrong kind at d.pos.
func (d *jsonDecoder) typeError(want string) error {
	var kind string
	switch c := d.data[d.pos]; {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == 'n':
		kind = "null"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		return d.syntaxError("looking for beginning of value")
	}
	return fmt.Errorf("bagio: json: cannot decode %s into %s (offset %d)", kind, want, d.pos)
}
