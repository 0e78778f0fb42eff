// Package obs is the repo's stdlib-only observability layer: a metrics
// registry with Prometheus text exposition, trace/span recording with
// traceparent propagation, a sliding-window rate estimator, and a
// Perfetto-compatible simulation timeline recorder.
//
// The offline build cannot vendor prometheus/client_golang or
// opentelemetry, so this package reimplements the minimal slices the
// service needs on top of sync/atomic. Everything here is safe for
// concurrent use.
//
// Wall-clock reads are permitted in this package only: the reactlint
// determinism analyzer exempts internal/obs from its time.Now ban, while
// sim-layer probes (SimTimeline) must derive every timestamp from tick
// arithmetic so that recorded timelines stay bit-identical across runs.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram. Bucket i counts observations
// v <= uppers[i]; one implicit +Inf bucket catches the rest. Buckets are
// chosen at registration and never change, so Observe is lock-free.
type Histogram struct {
	uppers  []float64
	counts  []atomic.Uint64 // len(uppers)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v: le buckets are inclusive
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// snapshot returns cumulative bucket counts aligned with uppers plus +Inf.
func (h *Histogram) snapshot() []uint64 {
	cum := make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum
}

// metricKind is a family's exposition TYPE.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// metric is one registered family: a single series (plus the synthetic
// _bucket/_sum/_count series for histograms). Counters and plain gauges
// carry the key they render under in the JSON report; histograms and info
// gauges have none and are exposition-only.
type metric struct {
	name   string
	key    string
	help   string
	kind   metricKind
	labels map[string]string // constant labels, may be nil

	counter *Counter
	gaugeFn func() float64 // every gauge kind reads through this
	hist    *Histogram
}

// Registry holds registered metrics and renders them two ways: as
// Prometheus text exposition format (version 0.0.4) and as a flat JSON
// object of every counter and gauge under its key.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	byKey   map[string]*metric
	ordered []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric), byKey: make(map[string]*metric)}
}

// register adds m, panicking on an invalid or duplicate name or key; keyed
// says whether m renders in the JSON report.
func (r *Registry) register(m *metric, keyed bool) {
	if !validName(m.name, true) {
		panic("obs: invalid metric name " + strconv.Quote(m.name))
	}
	if keyed && !validName(m.key, false) {
		panic("obs: invalid JSON key " + strconv.Quote(m.key) + " for " + m.name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic("obs: duplicate metric " + m.name)
	}
	if _, dup := r.byKey[m.key]; keyed && dup {
		panic("obs: duplicate JSON key " + m.key)
	}
	r.byName[m.name] = m
	if keyed {
		r.byKey[m.key] = m
	}
	r.ordered = append(r.ordered, m)
}

// Counter registers and returns a new counter, exposed as name and under
// the JSON key. Panics on a duplicate name or key.
func (r *Registry) Counter(name, key, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, key: key, help: help, kind: kindCounter, counter: c}, true)
	return c
}

// Gauge registers and returns a new gauge, exposed as name and under the
// JSON key.
func (r *Registry) Gauge(name, key, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, key: key, help: help, kind: kindGauge, gaugeFn: g.Load}, true)
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time,
// exposed as name and under the JSON key.
func (r *Registry) GaugeFunc(name, key, help string, fn func() float64) {
	r.register(&metric{name: name, key: key, help: help, kind: kindGauge, gaugeFn: fn}, true)
}

// InfoGauge registers a constant gauge of value 1 carrying labels, the
// Prometheus idiom for build/version info.
func (r *Registry) InfoGauge(name, help string, labels map[string]string) {
	cp := make(map[string]string, len(labels))
	for k, v := range labels {
		cp[k] = v
	}
	r.register(&metric{name: name, help: help, kind: kindGauge, labels: cp, gaugeFn: func() float64 { return 1 }}, false)
}

// Histogram registers a histogram with the given inclusive bucket upper
// bounds, which must be sorted strictly increasing; a +Inf bucket is
// implicit. Panics on unsorted buckets or duplicate names.
func (r *Registry) Histogram(name, help string, uppers []float64) *Histogram {
	for i := 1; i < len(uppers); i++ {
		if uppers[i] <= uppers[i-1] {
			panic("obs: histogram buckets must be sorted strictly increasing: " + name)
		}
	}
	h := &Histogram{
		uppers: append([]float64(nil), uppers...),
		counts: make([]atomic.Uint64, len(uppers)+1),
	}
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h}, false)
	return h
}

// metrics returns the registered families sorted by name.
func (r *Registry) metrics() []*metric {
	r.mu.Lock()
	ms := make([]*metric, len(r.ordered))
	copy(ms, r.ordered)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}

// WriteJSON renders every counter and gauge as one indented JSON object
// under its key, keys sorted. Counters render as integers; a NaN or ±Inf
// gauge, which JSON cannot spell, renders as null.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make(map[string]any)
	for _, m := range r.metrics() {
		switch {
		case m.counter != nil:
			out[m.key] = m.counter.Load()
		case m.key != "":
			if v := m.gaugeFn(); !math.IsNaN(v) && !math.IsInf(v, 0) {
				out[m.key] = v
			} else {
				out[m.key] = nil
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WritePrometheus renders every registered metric in text exposition
// format, sorted by metric name so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, m := range r.metrics() {
		b.WriteString("# HELP ")
		b.WriteString(m.name)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(m.help))
		b.WriteByte('\n')
		b.WriteString("# TYPE ")
		b.WriteString(m.name)
		b.WriteByte(' ')
		b.WriteString(string(m.kind))
		b.WriteByte('\n')
		switch m.kind {
		case kindCounter:
			writeSample(&b, m.name, m.labels, "", formatUint(m.counter.Load()))
		case kindGauge:
			writeSample(&b, m.name, m.labels, "", formatFloat(m.gaugeFn()))
		case kindHistogram:
			cum := m.hist.snapshot()
			for i, upper := range m.hist.uppers {
				writeSample(&b, m.name+"_bucket", m.labels, `le="`+formatFloat(upper)+`"`, formatUint(cum[i]))
			}
			writeSample(&b, m.name+"_bucket", m.labels, `le="+Inf"`, formatUint(cum[len(cum)-1]))
			writeSample(&b, m.name+"_sum", m.labels, "", formatFloat(m.hist.Sum()))
			writeSample(&b, m.name+"_count", m.labels, "", formatUint(m.hist.Count()))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSample emits one `name{labels} value` line. extra is a pre-rendered
// label pair (the histogram le) appended after the sorted constant labels.
func writeSample(b *strings.Builder, name string, labels map[string]string, extra, value string) {
	writeSeries(b, name, labels, extra)
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// writeSeries emits `name{labels}`, labels sorted and escaped — the
// canonical series spelling, which ParsePrometheus also keys samples by.
func writeSeries(b *strings.Builder, name string, labels map[string]string, extra string) {
	b.WriteString(name)
	if len(labels) > 0 || extra != "" {
		b.WriteByte('{')
		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(k)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(labels[k]))
			b.WriteByte('"')
		}
		if extra != "" {
			if len(keys) > 0 {
				b.WriteByte(',')
			}
			b.WriteString(extra)
		}
		b.WriteByte('}')
	}
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// validName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*, with ':'
// also allowed anywhere when colon is set: metric names may carry it,
// label names (and JSON keys) may not.
func validName(name string, colon bool) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || (colon && r == ':')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// DurationBuckets is a general-purpose latency bucket ladder in seconds,
// 100µs to ~100s in roughly 3x steps.
var DurationBuckets = []float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10, 30, 100}

// SizeBuckets is a count ladder (batch sizes, queue depths) in powers of two.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
