// Package bagio reads and writes bags and collections in a line-oriented
// text format and in JSON, for the command-line tools and examples.
//
// Text format:
//
//	# comments and blank lines are ignored
//	bag orders
//	schema CUSTOMER ITEM
//	alice widget : 3
//	bob gadget            # multiplicity defaults to 1
//	bag totals
//	schema CUSTOMER
//	alice : 3
//	bob
//
// Values are whitespace-separated tokens given in the schema's canonical
// (sorted) attribute order; an optional ": <count>" suffix sets the
// multiplicity. Values may not contain whitespace, '#' or be the bare
// token ":".
//
// JSON wire formats (the bagcd server formats): a bare array of JSONBag
// objects, or a JSONCollection object {"name": ..., "bags": [...]} when
// the instance is named. DecodeAny sniffs the leading byte and accepts
// either JSON shape or the text format, so every server endpoint and tool
// reads all three.
//
// Decoding interns at parse time, so the wire → engine path never
// materializes a per-tuple key string and the decoded bags are already
// in the columnar form the decision procedures run on. The JSON decoder
// (json.go) interns each value token straight from the body bytes into
// one dictionary per attribute name, shared by all bags of the request,
// and adds rows as ids; bagcol's dictionary pages are shared the same
// way. The text parser hands tokens to bag.Add, which interns into each
// bag's own dictionaries.
package bagio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"bagconsistency/internal/bag"
	"bagconsistency/internal/core"
	"bagconsistency/internal/hypergraph"
)

// NamedBag pairs a bag with its name from the file.
type NamedBag struct {
	Name string
	Bag  *bag.Bag
}

// ParseCollection reads every bag from the text format.
func ParseCollection(r io.Reader) ([]NamedBag, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out []NamedBag
	var cur *NamedBag
	lineno := 0
	curLine := 0 // line of the current bag's "bag" header, for headerless-schema errors
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "bag":
			if len(fields) != 2 {
				return nil, fmt.Errorf("bagio: line %d: want \"bag <name>\"", lineno)
			}
			if cur != nil && cur.Bag == nil {
				return nil, fmt.Errorf("bagio: line %d: bag %q has no schema", curLine, cur.Name)
			}
			out = append(out, NamedBag{Name: fields[1]})
			cur = &out[len(out)-1]
			curLine = lineno
		case "schema":
			if cur == nil {
				return nil, fmt.Errorf("bagio: line %d: schema before any bag", lineno)
			}
			if cur.Bag != nil {
				return nil, fmt.Errorf("bagio: line %d: duplicate schema for bag %q", lineno, cur.Name)
			}
			s, err := bag.NewSchema(fields[1:]...)
			if err != nil {
				return nil, fmt.Errorf("bagio: line %d: %w", lineno, err)
			}
			cur.Bag = bag.New(s)
		default:
			if cur == nil || cur.Bag == nil {
				return nil, fmt.Errorf("bagio: line %d: tuple before bag/schema", lineno)
			}
			vals := fields
			count := int64(1)
			if i := indexOf(fields, ":"); i >= 0 {
				if i != len(fields)-2 {
					return nil, fmt.Errorf("bagio: line %d: want \"v1 v2 ... : count\"", lineno)
				}
				n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("bagio: line %d: bad count %q", lineno, fields[len(fields)-1])
				}
				count = n
				vals = fields[:i]
			}
			if err := cur.Bag.Add(vals, count); err != nil {
				return nil, fmt.Errorf("bagio: line %d: %w", lineno, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bagio: line %d: %w", lineno+1, err)
	}
	if cur != nil && cur.Bag == nil {
		return nil, fmt.Errorf("bagio: line %d: bag %q has no schema", curLine, cur.Name)
	}
	return out, nil
}

func indexOf(fields []string, tok string) int {
	for i, f := range fields {
		if f == tok {
			return i
		}
	}
	return -1
}

// WriteCollection writes bags in the text format; ParseCollection inverts it.
func WriteCollection(w io.Writer, bags []NamedBag) error {
	bw := bufio.NewWriter(w)
	for i, nb := range bags {
		if i > 0 {
			fmt.Fprintln(bw)
		}
		fmt.Fprintf(bw, "bag %s\n", nb.Name)
		fmt.Fprintf(bw, "schema %s\n", strings.Join(nb.Bag.Schema().Attrs(), " "))
		err := nb.Bag.Each(func(t bag.Tuple, count int64) error {
			_, err := fmt.Fprintf(bw, "%s : %d\n", strings.Join(t.Values(), " "), count)
			return err
		})
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ToCollection assembles a core.Collection from named bags: the hypergraph
// has one hyperedge per bag, the bag's attribute set.
func ToCollection(bags []NamedBag) (*core.Collection, error) {
	if len(bags) == 0 {
		return nil, fmt.Errorf("bagio: no bags")
	}
	var edges [][]string
	var bs []*bag.Bag
	for _, nb := range bags {
		edges = append(edges, nb.Bag.Schema().Attrs())
		bs = append(bs, nb.Bag)
	}
	h, err := hypergraph.New(edges)
	if err != nil {
		return nil, err
	}
	return core.NewCollection(h, bs)
}

// JSONBag is the JSON wire form of one bag. It is the unit of the server
// wire format: request bodies are arrays of JSONBag or a JSONCollection
// wrapping one.
type JSONBag struct {
	Name   string      `json:"name,omitempty"`
	Schema []string    `json:"schema"`
	Tuples []JSONTuple `json:"tuples"`
}

// JSONTuple is one support tuple of a JSONBag: values in the schema's
// canonical attribute order plus a non-negative multiplicity.
type JSONTuple struct {
	Values []string `json:"values"`
	Count  int64    `json:"count"`
}

// JSONCollection is the named-collection wire object: the request form the
// daemon accepts when clients want to name the instance. Decoding accepts
// either this object or a bare JSONBag array.
type JSONCollection struct {
	Name string    `json:"name,omitempty"`
	Bags []JSONBag `json:"bags"`
}

// ToJSONBags converts named bags to their wire form.
func ToJSONBags(bags []NamedBag) ([]JSONBag, error) {
	arr := make([]JSONBag, 0, len(bags))
	for _, nb := range bags {
		jb := JSONBag{Name: nb.Name, Schema: nb.Bag.Schema().Attrs()}
		err := nb.Bag.Each(func(t bag.Tuple, count int64) error {
			jb.Tuples = append(jb.Tuples, JSONTuple{Values: t.Values(), Count: count})
			return nil
		})
		if err != nil {
			return nil, err
		}
		arr = append(arr, jb)
	}
	return arr, nil
}

// EncodeJSON writes the bags as a JSON array.
func EncodeJSON(w io.Writer, bags []NamedBag) error {
	arr, err := ToJSONBags(bags)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(arr)
}

// DecodeJSON reads bags from the JSON array form (null reads as no
// bags). It refuses the named-collection object; DecodeJSONCollection
// reads both shapes.
func DecodeJSON(r io.Reader) ([]NamedBag, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	_, bags, err := decodeJSON(data, true)
	return bags, err
}

// EncodeJSONCollection writes bags as a named-collection object.
func EncodeJSONCollection(w io.Writer, name string, bags []NamedBag) error {
	arr, err := ToJSONBags(bags)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(JSONCollection{Name: name, Bags: arr})
}

// DecodeJSONCollection reads either wire shape — a named-collection object
// or a bare bag array — returning the collection name ("" for the array
// form).
func DecodeJSONCollection(r io.Reader) (string, []NamedBag, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return "", nil, err
	}
	return decodeJSON(data, false)
}

// DecodeAny reads a collection in whichever format the bytes are in: the
// binary bagcol format (recognized by its 8-byte magic), the JSON array
// form, the named-collection JSON object, or the line-oriented text
// format. The JSON forms are recognized by a leading '[' or '{'; the text
// format has neither (bags start with the "bag" keyword). This is the
// daemon's request decoding, so one endpoint serves every kind of client.
func DecodeAny(r io.Reader) (string, []NamedBag, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return "", nil, err
	}
	if IsColumnar(data) {
		return DecodeColumnar(data)
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && (trimmed[0] == '[' || trimmed[0] == '{') {
		return decodeJSON(trimmed, false)
	}
	bags, err := ParseCollection(bytes.NewReader(data))
	return "", bags, err
}
