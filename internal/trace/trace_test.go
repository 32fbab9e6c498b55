package trace

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestSpanTreeShape(t *testing.T) {
	tr := New(ID{}, SpanRequest)
	ctx := NewContext(context.Background(), tr)

	ctx2, check := Start(ctx, SpanCheck)
	check.SetAttr("kind", "global")
	_, fp := Start(ctx2, SpanFingerprint)
	fp.End()
	_, ilp := Start(ctx2, SpanILPSearch)
	ilp.SetCounter("nodes", 42)
	ilp.End()
	check.End()
	tr.Root().End()

	snap := tr.Snapshot()
	if snap.Root.Name != SpanRequest {
		t.Fatalf("root = %q", snap.Root.Name)
	}
	if len(snap.Root.Children) != 1 || snap.Root.Children[0].Name != SpanCheck {
		t.Fatalf("root children = %+v", snap.Root.Children)
	}
	cn := snap.Root.Children[0]
	if cn.Attrs["kind"] != "global" {
		t.Fatalf("check attrs = %v", cn.Attrs)
	}
	if len(cn.Children) != 2 {
		t.Fatalf("check children = %d", len(cn.Children))
	}
	in := cn.Children[1]
	if in.Name != SpanILPSearch || in.Counters["nodes"] != 42 {
		t.Fatalf("ilp node = %+v", in)
	}
	if snap.Dropped != 0 {
		t.Fatalf("dropped = %d", snap.Dropped)
	}
}

// TestNesting asserts every child interval fits inside its parent's.
func TestNesting(t *testing.T) {
	tr := New(ID{}, SpanRequest)
	ctx := NewContext(context.Background(), tr)
	ctx, a := Start(ctx, "a")
	time.Sleep(time.Millisecond)
	_, b := Start(ctx, "b")
	time.Sleep(time.Millisecond)
	b.End()
	a.End()
	tr.Root().End()

	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			if c.StartNs < n.StartNs {
				t.Fatalf("%s starts before parent %s", c.Name, n.Name)
			}
			if c.StartNs+c.DurationNs > n.StartNs+n.DurationNs {
				t.Fatalf("%s ends after parent %s", c.Name, n.Name)
			}
			walk(c)
		}
	}
	walk(tr.Snapshot().Root)
}

func TestUntracedContextFastPath(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := Start(ctx, "x")
	if ctx2 != ctx || sp != nil {
		t.Fatal("untraced Start must be a no-op")
	}
	// Every method must tolerate nil.
	sp.End()
	sp.SetAttr("k", "v")
	sp.SetCounter("c", 1)
	sp.SetStart(time.Now())
	sp.StartChild("y").End()
	if FromContext(ctx) != nil || SpanFromContext(ctx) != nil {
		t.Fatal("untraced context must yield nil")
	}
	if Record(ctx, "z", time.Now()) != nil {
		t.Fatal("untraced Record must return nil")
	}
}

func TestArenaBoundAndDrops(t *testing.T) {
	tr := NewWithCapacity(ID{}, "root", 4)
	ctx := NewContext(context.Background(), tr)
	var spans []*Span
	for i := 0; i < 10; i++ {
		_, sp := Start(ctx, "s")
		spans = append(spans, sp)
	}
	for _, sp := range spans {
		sp.End() // nil-safe for the dropped ones
	}
	tr.Root().End()
	snap := tr.Snapshot()
	if got := len(snap.Root.Children); got != 3 {
		t.Fatalf("recorded children = %d, want 3 (cap 4 incl. root)", got)
	}
	if snap.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", snap.Dropped)
	}
}

func TestRecordBackdatedSpan(t *testing.T) {
	tr := New(ID{}, "root")
	ctx := NewContext(context.Background(), tr)
	enqueued := time.Now().Add(-50 * time.Millisecond)
	sp := Record(ctx, SpanQueueWait, enqueued)
	if sp == nil {
		t.Fatal("expected span")
	}
	tr.Root().End()
	n := tr.Snapshot().Root.Children[0]
	if n.DurationNs < (40 * time.Millisecond).Nanoseconds() {
		t.Fatalf("backdated duration = %v", time.Duration(n.DurationNs))
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	tr := New(ID{}, SpanRequest)
	ctx := NewContext(context.Background(), tr)
	_, sp := Start(ctx, SpanCheck)
	sp.SetAttr("fp", "deadbeef")
	sp.SetCounter("nodes", 9)
	sp.End()
	tr.Root().End()
	raw, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != tr.ID().String() || back.Root.Children[0].Counters["nodes"] != 9 {
		t.Fatalf("round trip lost data: %s", raw)
	}
	if strings.Contains(string(raw), "dropped_spans") {
		t.Fatalf("zero drop count must be omitted: %s", raw)
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	if r.Len() != 0 || r.Snapshots() != nil && len(r.Snapshots()) != 0 {
		t.Fatal("empty ring")
	}
	for i := 0; i < 5; i++ {
		tr := New(ID{}, "root")
		tr.Root().SetAttr("i", string(rune('a'+i)))
		tr.Root().End()
		r.Add(tr.Snapshot())
	}
	got := r.Snapshots()
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	// Newest first: e, d, c.
	for i, want := range []string{"e", "d", "c"} {
		if got[i].Root.Attrs["i"] != want {
			t.Fatalf("order[%d] = %v, want %s", i, got[i].Root.Attrs, want)
		}
	}
}

func TestSlowCapture(t *testing.T) {
	path := t.TempDir() + "/slow.ndjson"
	c, err := NewSlowCapture(10*time.Millisecond, 4, path)
	if err != nil {
		t.Fatal(err)
	}
	fast := &Snapshot{TraceID: "fast", DurationNs: int64(time.Millisecond), Root: &Node{Name: "request"}}
	slow := &Snapshot{TraceID: "slow", DurationNs: int64(time.Second), Root: &Node{Name: "request"}}
	if c.Offer(fast) {
		t.Fatal("fast trace captured")
	}
	if !c.Offer(slow) {
		t.Fatal("slow trace not captured")
	}
	if c.Ring().Len() != 1 {
		t.Fatalf("slow ring len = %d", c.Ring().Len())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 1 {
		t.Fatalf("file lines = %d", len(lines))
	}
	var back Snapshot
	if err := json.Unmarshal([]byte(lines[0]), &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != "slow" {
		t.Fatalf("persisted trace = %q", back.TraceID)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id, span := NewID(), NewSpanID()
	h := FormatTraceparent(id, span)
	gotID, gotSpan, ok := ParseTraceparent(h)
	if !ok || gotID != id || gotSpan != span {
		t.Fatalf("round trip failed: %s", h)
	}
}

func TestTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // short
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero parent
		"00-4bf92f3577b34da6a3ce929d0e0e47XY-00f067aa0ba902b7-01",  // non-hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // bad delimiter
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // trailing junk, no delimiter
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Fatalf("accepted %q", h)
		}
	}
	// A longer header with properly delimited future fields is accepted.
	if _, _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Fatal("rejected forward-compatible header")
	}
}

func TestNewIDNonZeroAndDistinct(t *testing.T) {
	a, b := NewID(), NewID()
	if a.IsZero() || b.IsZero() || a == b {
		t.Fatalf("ids: %s %s", a, b)
	}
	if len(a.String()) != 32 {
		t.Fatalf("hex len = %d", len(a.String()))
	}
}
