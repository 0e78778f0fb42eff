package obs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestTraceparentRoundTrip: a minted context renders a W3C traceparent and
// parses back to the same IDs.
func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	h := sc.Traceparent()
	got, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", h)
	}
	if got != sc {
		t.Fatalf("round trip %q: got %+v, want %+v", h, got, sc)
	}
}

// TestParseTraceparentRejects: malformed, zero-ID, and unknown-version
// headers are rejected rather than propagated.
func TestParseTraceparentRejects(t *testing.T) {
	valid := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}.Traceparent()
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatal("control header rejected")
	}
	for _, bad := range []string{
		"",
		"garbage",
		"01-" + valid[3:], // unknown version
		"00-0000000000000000000000000000000a-000000000000000b",      // missing flags
		"00-00000000000000000000000000000000-000000000000000b-01",   // zero trace id
		"00-0000000000000000000000000000000a-0000000000000000-01",   // zero span id
		"00-short-000000000000000b-01",                              // short trace id
		"00-0000000000000000000000000000000a-zzzzzzzzzzzzzzzz-01",   // non-hex span id
		"00-0000000000000000000000000000000a-000000000000000b-0100", // long flags
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("accepted malformed traceparent %q", bad)
		}
	}
}

// TestParseTraceparentW3C holds the parser to W3C Trace Context's
// spelling rules: ids and flags are lowercase hex only, and any flags
// byte is accepted (and ignored) once it is spelled right.
func TestParseTraceparentW3C(t *testing.T) {
	const tid, sid = "4bf92f3577b34da6a3ce929d0e0e4736", "00f067aa0ba902b7"
	for _, tc := range []struct {
		name, h string
		ok      bool
	}{
		{"sampled", "00-" + tid + "-" + sid + "-01", true},
		{"unsampled", "00-" + tid + "-" + sid + "-00", true},
		{"unknown flag bits", "00-" + tid + "-" + sid + "-ff", true},
		{"uppercase trace id", "00-" + strings.ToUpper(tid) + "-" + sid + "-01", false},
		{"one uppercase digit", "00-" + tid[:31] + "B-" + sid + "-01", false},
		{"uppercase span id", "00-" + tid + "-" + strings.ToUpper(sid) + "-01", false},
		{"uppercase flags", "00-" + tid + "-" + sid + "-FF", false},
		{"non-hex flags", "00-" + tid + "-" + sid + "-zz", false},
		{"half-hex flags", "00-" + tid + "-" + sid + "-0g", false},
		{"short flags", "00-" + tid + "-" + sid + "-1", false},
		{"uppercase version", "0A-" + tid + "-" + sid + "-01", false},
	} {
		sc, ok := ParseTraceparent(tc.h)
		if ok != tc.ok {
			t.Errorf("%s: ParseTraceparent(%q) ok = %v, want %v", tc.name, tc.h, ok, tc.ok)
			continue
		}
		if ok && (sc.TraceID.String() != tid || sc.SpanID.String() != sid) {
			t.Errorf("%s: parsed %+v, want trace %s span %s", tc.name, sc, tid, sid)
		}
	}
	if _, ok := ParseTraceID(strings.ToUpper("4bf92f3577b34da6a3ce929d0e0e4736")); ok {
		t.Error("ParseTraceID accepted an uppercase trace id")
	}
}

// TestSpanStoreNesting: Start with an invalid parent mints a fresh trace
// root; children and events nest under it; BuildTree reassembles the tree.
func TestSpanStoreNesting(t *testing.T) {
	st := NewSpanStore(0, 0)
	root := st.Start(SpanContext{}, "run", "a", map[string]string{"scenario": "x"})
	if !root.Context().Valid() {
		t.Fatal("root span has no valid context")
	}
	child := st.Start(root.Context(), "batch", "a", nil)
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatal("child did not inherit the trace ID")
	}
	st.Event(child.Context(), "disk-hit", "a", nil)
	child.SetAttr("cells", "3")
	child.End(nil)
	root.End(errors.New("boom"))

	spans, dropped := st.Spans(root.Context().TraceID)
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	trees := BuildTree(spans)
	if len(trees) != 1 || trees[0].Name != "run" {
		t.Fatalf("tree roots = %+v, want one 'run' root", trees)
	}
	if len(trees[0].Children) != 1 || trees[0].Children[0].Name != "batch" {
		t.Fatalf("root children = %+v, want one 'batch'", trees[0].Children)
	}
	batch := trees[0].Children[0]
	if len(batch.Children) != 1 || batch.Children[0].Name != "disk-hit" {
		t.Fatalf("batch children = %+v, want one 'disk-hit' event", batch.Children)
	}
	if batch.Attrs["cells"] != "3" {
		t.Errorf("SetAttr lost: attrs = %v", batch.Attrs)
	}
	if batch.EndUnixNs == 0 {
		t.Error("ended child still open")
	}
	if trees[0].Err != "boom" {
		t.Errorf("root error = %q, want boom", trees[0].Err)
	}
	// Nil-safety: the nil ActiveSpan path must not panic (spans are
	// dropped under load, and every End/SetAttr site relies on this).
	var nilSpan *ActiveSpan
	nilSpan.End(nil)
	nilSpan.SetAttr("k", "v")
	if nilSpan.Context().Valid() {
		t.Error("nil span has a valid context")
	}
	// Double End is a no-op, not a corruption.
	child.End(errors.New("late"))
	spans, _ = st.Spans(root.Context().TraceID)
	for _, sp := range spans {
		if sp.Name == "batch" && sp.Err != "" {
			t.Errorf("second End overwrote the span: %+v", sp)
		}
	}
}

// TestSpanStoreSpanCap: past maxSpans per trace, spans are counted dropped,
// not stored and not crashed on.
func TestSpanStoreSpanCap(t *testing.T) {
	st := NewSpanStore(4, 3)
	root := st.Start(SpanContext{}, "root", "", nil)
	for i := 0; i < 5; i++ {
		st.Event(root.Context(), fmt.Sprintf("e%d", i), "", nil)
	}
	spans, dropped := st.Spans(root.Context().TraceID)
	if len(spans) != 3 {
		t.Errorf("stored %d spans, want cap 3", len(spans))
	}
	if dropped != 3 || st.Dropped() != 3 {
		t.Errorf("dropped = %d (store %d), want 3", dropped, st.Dropped())
	}
}

// TestSpanStoreTraceEviction: a new trace past maxTraces evicts the
// least-recently-written one.
func TestSpanStoreTraceEviction(t *testing.T) {
	st := NewSpanStore(2, 16)
	a := st.Start(SpanContext{}, "a", "", nil)
	b := st.Start(SpanContext{}, "b", "", nil)
	// Touch a so b becomes the eviction victim.
	st.Event(a.Context(), "touch", "", nil)
	c := st.Start(SpanContext{}, "c", "", nil)

	if spans, _ := st.Spans(b.Context().TraceID); len(spans) != 0 {
		t.Errorf("LRU trace b survived eviction with %d spans", len(spans))
	}
	for name, sc := range map[string]SpanContext{"a": a.Context(), "c": c.Context()} {
		if spans, _ := st.Spans(sc.TraceID); len(spans) == 0 {
			t.Errorf("trace %s was evicted, want it retained", name)
		}
	}
}

// TestBuildTreeOrphans: spans whose parent is missing (remote fragments
// from an unreachable peer) surface as roots instead of vanishing, and
// duplicate span IDs (the same span fetched from two peers) collapse to
// one node.
func TestBuildTreeOrphans(t *testing.T) {
	spans := []Span{
		{TraceID: "t", SpanID: "aa", Name: "root", StartUnixNs: 1},
		{TraceID: "t", SpanID: "bb", ParentID: "aa", Name: "child", StartUnixNs: 2},
		{TraceID: "t", SpanID: "cc", ParentID: "missing", Name: "orphan", StartUnixNs: 3},
		{TraceID: "t", SpanID: "bb", ParentID: "aa", Name: "child", StartUnixNs: 2}, // duplicate
	}
	trees := BuildTree(spans)
	if len(trees) != 2 {
		t.Fatalf("got %d roots, want 2 (root + orphan)", len(trees))
	}
	if trees[0].Name != "root" || trees[1].Name != "orphan" {
		t.Fatalf("roots ordered %q, %q; want root, orphan", trees[0].Name, trees[1].Name)
	}
	if len(trees[0].Children) != 1 {
		t.Fatalf("duplicate span not collapsed: %d children", len(trees[0].Children))
	}
}
