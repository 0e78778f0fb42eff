package obs

import (
	crand "crypto/rand"
	"encoding/hex"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TraceparentHeader is the HTTP header carrying the trace context across
// peer forwards, in the W3C trace-context shape
// `00-<16-byte trace id hex>-<8-byte span id hex>-01`.
const TraceparentHeader = "Traceparent"

// TraceID identifies one distributed request tree (a run, sweep, or
// exploration and every batch, disk, and peer hop it fans out into).
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// ParseTraceID decodes a 32-digit lowercase-hex trace ID.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if !lowerHex(s, 2*len(t)) {
		return TraceID{}, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// lowerHex reports whether s is exactly n lowercase hex digits, the only
// spelling W3C Trace Context allows for ids and flags.
func lowerHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// idFallback seeds distinct IDs if crypto/rand ever fails.
var idFallback atomic.Uint64

func randomBytes(b []byte) {
	if _, err := crand.Read(b); err != nil {
		n := idFallback.Add(1) ^ uint64(time.Now().UnixNano())
		for i := range b {
			b[i] = byte(n >> (8 * (i % 8)))
			if i%8 == 7 {
				n = n*0x9e3779b97f4a7c15 + 1
			}
		}
	}
}

// NewTraceID mints a random trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		randomBytes(t[:])
	}
	return t
}

// NewSpanID mints a random span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		randomBytes(s[:])
	}
	return s
}

// SpanContext is the propagated half of a span: enough to parent remote
// children and to render the traceparent header.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context carries a real trace.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Traceparent renders the header value `00-<trace>-<span>-01`.
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent decodes a traceparent header value. Unknown versions,
// malformed (including uppercase) or all-zero IDs, and flags that are not
// two lowercase hex digits are rejected (ok=false); valid trace flags are
// accepted but ignored.
func ParseTraceparent(h string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || parts[0] != "00" {
		return SpanContext{}, false
	}
	tid, ok := ParseTraceID(parts[1])
	if !ok {
		return SpanContext{}, false
	}
	var sid SpanID
	if !lowerHex(parts[2], 2*len(sid)) || !lowerHex(parts[3], 2) {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sid[:], []byte(parts[2])); err != nil || sid.IsZero() {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: tid, SpanID: sid}, true
}

// Span is one recorded operation. Times are unix nanoseconds; EndUnixNano
// is zero while the span is still open. Node names the cluster member
// that recorded the span so merged cross-peer trees stay attributable.
type Span struct {
	TraceID     string            `json:"trace_id"`
	SpanID      string            `json:"span_id"`
	ParentID    string            `json:"parent_id,omitempty"`
	Name        string            `json:"name"`
	Node        string            `json:"node,omitempty"`
	StartUnixNs int64             `json:"start_unix_ns"`
	EndUnixNs   int64             `json:"end_unix_ns,omitempty"`
	Err         string            `json:"error,omitempty"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

// SpanTree is a span plus its resolved children, the wire shape of the
// /runs/{id}/trace endpoints.
type SpanTree struct {
	Span
	Children []*SpanTree `json:"children,omitempty"`
}

// BuildTree links spans into parent/child trees. Spans whose parent is
// absent (the root, or remote fragments whose parent lives on another
// node that could not be reached) become roots. Siblings are ordered by
// start time then span ID so the tree renders deterministically.
func BuildTree(spans []Span) []*SpanTree {
	// Index and link in slice order, never map order (the determinism
	// contract: a trace tree must marshal identically for any map seed).
	// Duplicate span IDs keep the first occurrence.
	nodes := make(map[string]*SpanTree, len(spans))
	all := make([]*SpanTree, 0, len(spans))
	for i := range spans {
		if _, dup := nodes[spans[i].SpanID]; dup {
			continue
		}
		n := &SpanTree{Span: spans[i]}
		nodes[spans[i].SpanID] = n
		all = append(all, n)
	}
	var roots []*SpanTree
	for _, n := range all {
		if p, ok := nodes[n.ParentID]; ok && n.ParentID != n.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	order := func(ts []*SpanTree) {
		sort.Slice(ts, func(i, j int) bool {
			if ts[i].StartUnixNs != ts[j].StartUnixNs {
				return ts[i].StartUnixNs < ts[j].StartUnixNs
			}
			return ts[i].SpanID < ts[j].SpanID
		})
	}
	order(roots)
	for _, n := range all {
		order(n.Children)
	}
	return roots
}

// traceEntry holds one trace's spans plus bookkeeping for LRU eviction.
type traceEntry struct {
	spans   []Span
	open    map[SpanID]int // span ID -> index in spans, while open
	touched int64          // unix nanos of last write, for eviction
	dropped uint64
}

// SpanStore is a bounded in-memory span recorder: at most maxTraces
// traces (least-recently-written evicted first) of at most maxSpans
// spans each (excess spans counted, not stored).
type SpanStore struct {
	mu        sync.Mutex
	traces    map[TraceID]*traceEntry
	maxTraces int
	maxSpans  int
	dropped   atomic.Uint64
}

// NewSpanStore returns a store bounded to maxTraces traces of maxSpans
// spans each. Non-positive bounds fall back to 256 traces / 4096 spans.
func NewSpanStore(maxTraces, maxSpans int) *SpanStore {
	if maxTraces <= 0 {
		maxTraces = 256
	}
	if maxSpans <= 0 {
		maxSpans = 4096
	}
	return &SpanStore{
		traces:    make(map[TraceID]*traceEntry),
		maxTraces: maxTraces,
		maxSpans:  maxSpans,
	}
}

// Dropped returns the number of spans discarded because a trace hit its
// span cap.
func (st *SpanStore) Dropped() uint64 { return st.dropped.Load() }

// ActiveSpan is an open span; call End (or EndErr) exactly once.
type ActiveSpan struct {
	store *SpanStore
	sc    SpanContext
}

// Start opens a span. A valid parent nests the span inside the parent's
// trace; an invalid parent mints a fresh trace, making the span a root.
func (st *SpanStore) Start(parent SpanContext, name, node string, attrs map[string]string) *ActiveSpan {
	sc := SpanContext{TraceID: parent.TraceID, SpanID: NewSpanID()}
	parentID := ""
	if parent.TraceID.IsZero() {
		sc.TraceID = NewTraceID()
	} else if !parent.SpanID.IsZero() {
		parentID = parent.SpanID.String()
	}
	sp := Span{
		TraceID:     sc.TraceID.String(),
		SpanID:      sc.SpanID.String(),
		ParentID:    parentID,
		Name:        name,
		Node:        node,
		StartUnixNs: time.Now().UnixNano(),
		Attrs:       attrs,
	}
	st.add(sc.TraceID, sp, sc.SpanID)
	return &ActiveSpan{store: st, sc: sc}
}

// Event records an instant (zero-duration, already-closed) span.
func (st *SpanStore) Event(parent SpanContext, name, node string, attrs map[string]string) {
	if !parent.Valid() {
		return
	}
	now := time.Now().UnixNano()
	sp := Span{
		TraceID:     parent.TraceID.String(),
		SpanID:      NewSpanID().String(),
		ParentID:    parent.SpanID.String(),
		Name:        name,
		Node:        node,
		StartUnixNs: now,
		EndUnixNs:   now,
		Attrs:       attrs,
	}
	st.add(parent.TraceID, sp, SpanID{})
}

// AddRemote merges spans fetched from a peer into the local store,
// bucketed under their own trace IDs.
func (st *SpanStore) AddRemote(spans []Span) {
	for _, sp := range spans {
		tid, ok := ParseTraceID(sp.TraceID)
		if !ok {
			continue
		}
		st.add(tid, sp, SpanID{})
	}
}

func (st *SpanStore) add(tid TraceID, sp Span, open SpanID) {
	now := time.Now().UnixNano()
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.traces[tid]
	if e == nil {
		if len(st.traces) >= st.maxTraces {
			st.evictLocked()
		}
		e = &traceEntry{open: make(map[SpanID]int)}
		st.traces[tid] = e
	}
	e.touched = now
	if len(e.spans) >= st.maxSpans {
		e.dropped++
		st.dropped.Add(1)
		return
	}
	e.spans = append(e.spans, sp)
	if !open.IsZero() {
		e.open[open] = len(e.spans) - 1
	}
}

// evictLocked removes the least-recently-written trace.
func (st *SpanStore) evictLocked() {
	var victim TraceID
	oldest := int64(0)
	first := true
	for tid, e := range st.traces {
		if first || e.touched < oldest || (e.touched == oldest && tid.String() < victim.String()) {
			victim, oldest, first = tid, e.touched, false
		}
	}
	if !first {
		delete(st.traces, victim)
	}
}

// Context returns the span's propagation context (nil-safe).
func (a *ActiveSpan) Context() SpanContext {
	if a == nil {
		return SpanContext{}
	}
	return a.sc
}

// End closes the span, recording err if non-nil. Safe on a nil receiver
// and idempotent enough for deferred use (a second End is a no-op).
func (a *ActiveSpan) End(err error) {
	if a == nil || a.store == nil {
		return
	}
	st := a.store
	a.store = nil
	now := time.Now().UnixNano()
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.traces[a.sc.TraceID]
	if e == nil {
		return
	}
	i, ok := e.open[a.sc.SpanID]
	if !ok {
		return
	}
	delete(e.open, a.sc.SpanID)
	e.spans[i].EndUnixNs = now
	if err != nil {
		e.spans[i].Err = err.Error()
	}
	e.touched = now
}

// SetAttr annotates an open span.
func (a *ActiveSpan) SetAttr(k, v string) {
	if a == nil || a.store == nil {
		return
	}
	st := a.store
	st.mu.Lock()
	defer st.mu.Unlock()
	e := st.traces[a.sc.TraceID]
	if e == nil {
		return
	}
	i, ok := e.open[a.sc.SpanID]
	if !ok {
		return
	}
	if e.spans[i].Attrs == nil {
		e.spans[i].Attrs = make(map[string]string)
	}
	e.spans[i].Attrs[k] = v
}

// Spans returns a snapshot of the trace's spans ordered by start time
// then span ID, plus how many spans were dropped at the cap.
func (st *SpanStore) Spans(tid TraceID) (spans []Span, dropped uint64) {
	st.mu.Lock()
	e := st.traces[tid]
	if e != nil {
		spans = append([]Span(nil), e.spans...)
		dropped = e.dropped
	}
	st.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartUnixNs != spans[j].StartUnixNs {
			return spans[i].StartUnixNs < spans[j].StartUnixNs
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	return spans, dropped
}
