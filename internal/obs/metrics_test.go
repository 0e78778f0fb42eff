package obs

import (
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestHistogramBucketBoundaries pins the le-bucket edge semantics: buckets
// are inclusive upper bounds (v <= upper), exactly-on-boundary samples land
// in the boundary's own bucket, and everything above the last bound lands
// in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_hist", "boundary fixture", []float64{1, 2, 4})

	for _, v := range []float64{0.5, 1, 1.0000001, 2, 3, 4, 4.5, 100} {
		h.Observe(v)
	}
	// Raw (non-cumulative) expectations per bucket:
	//   le=1:    0.5, 1            -> 2
	//   le=2:    1.0000001, 2      -> 2
	//   le=4:    3, 4              -> 2
	//   +Inf:    4.5, 100          -> 2
	cum := h.snapshot()
	want := []uint64{2, 4, 6, 8}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("cumulative bucket %d = %d, want %d", i, cum[i], want[i])
		}
	}
	if h.Count() != 8 {
		t.Errorf("Count = %d, want 8", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-116.0000001) > 1e-6 {
		t.Errorf("Sum = %g, want 116.0000001", sum)
	}
}

// TestHistogramEmpty: a never-observed histogram still renders a complete,
// parseable family with all-zero buckets.
func TestHistogramEmpty(t *testing.T) {
	r := NewRegistry()
	r.Histogram("empty_hist", "no samples", []float64{1})
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	for _, key := range []string{`empty_hist_bucket{le="1"}`, `empty_hist_bucket{le="+Inf"}`, "empty_hist_sum", "empty_hist_count"} {
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing series %s in:\n%s", key, b.String())
		}
		if v != 0 {
			t.Errorf("%s = %g, want 0", key, v)
		}
	}
}

// mixedRegistry holds every metric kind, with label values that need
// escaping: the fixture for both renderers and the parser's fuzz seed.
func mixedRegistry() *Registry {
	r := NewRegistry()
	r.Counter("zz_total", "zz", "a counter").Add(7)
	r.Gauge("aa_gauge", "aa", "a gauge").Set(-3.25)
	r.GaugeFunc("fn_gauge", "fn", "computed", func() float64 { return 2.5 })
	r.InfoGauge("build_info", "labels", map[string]string{
		"version": "v1.2.3",
		"odd":     "quote\" slash\\ newline\n",
	})
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	return r
}

// render runs one of the registry's writers into a string.
func render(t testing.TB, r *Registry, write func(*Registry, io.Writer) error) string {
	t.Helper()
	var b strings.Builder
	if err := write(r, &b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWritePrometheusRoundTrip renders a mixed registry and re-reads it
// through the package's own grammar checker, pinning the format contract
// the CI scrape check relies on: sorted families, cumulative buckets,
// labeled info gauges, and escaped label values.
func TestWritePrometheusRoundTrip(t *testing.T) {
	text := render(t, mixedRegistry(), (*Registry).WritePrometheus)

	samples, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	checks := map[string]float64{
		"zz_total":                      7,
		"aa_gauge":                      -3.25,
		"fn_gauge":                      2.5,
		`lat_seconds_bucket{le="0.1"}`:  1,
		`lat_seconds_bucket{le="1"}`:    2,
		`lat_seconds_bucket{le="+Inf"}`: 3,
		"lat_seconds_count":             3,
	}
	for key, want := range checks {
		if got, ok := samples[key]; !ok || got != want {
			t.Errorf("%s = %g (present %v), want %g", key, got, ok, want)
		}
	}
	if got := samples[`build_info{odd="quote\" slash\\ newline\n",version="v1.2.3"}`]; got != 1 {
		t.Errorf("info gauge with escaped labels missing or != 1 (got %g) in:\n%s", got, text)
	}

	// Families must render in sorted name order so scrapes diff cleanly.
	var families []string
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, strings.Fields(rest)[0])
		}
	}
	for i := 1; i < len(families); i++ {
		if families[i-1] >= families[i] {
			t.Errorf("families out of order: %q before %q", families[i-1], families[i])
		}
	}
}

// TestRegistryPanics: the registration-time contract violations are
// programmer errors and must fail loudly at startup, not silently corrupt
// the exposition.
func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("dup_total", "dup", "first")
	mustPanic("duplicate name", func() { r.Counter("dup_total", "other", "second") })
	mustPanic("duplicate key", func() { r.GaugeFunc("other_gauge", "dup", "second", func() float64 { return 0 }) })
	mustPanic("invalid name", func() { r.Gauge("bad-name", "bad", "dashes are not allowed") })
	mustPanic("invalid key", func() { r.Gauge("bad_key", "bad-key", "dashes are not allowed") })
	mustPanic("missing key", func() { r.Counter("keyless_total", "", "every counter renders in JSON") })
	mustPanic("unsorted buckets", func() { r.Histogram("h", "x", []float64{1, 1}) })
}

// TestWriteJSON pins the second rendering: one object holding every
// counter and gauge under its key (histograms and info gauges stay
// exposition-only), counters as integers, keys sorted, and a NaN or ±Inf
// gauge as null rather than invalid JSON.
func TestWriteJSON(t *testing.T) {
	r := mixedRegistry()
	r.Counter("big_total", "big", "past float64's integers").Add(1<<53 + 1)
	r.Gauge("inf_gauge", "inf", "unbounded").Set(math.Inf(1))
	r.GaugeFunc("nan_gauge", "nan", "undefined", math.NaN)
	text := render(t, r, (*Registry).WriteJSON)

	var got map[string]any
	if err := json.Unmarshal([]byte(text), &got); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, text)
	}
	want := map[string]any{"aa": -3.25, "big": float64(1<<53 + 1), "fn": 2.5, "inf": nil, "nan": nil, "zz": 7.0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report = %v, want %v", got, want)
	}
	if !strings.Contains(text, `"big": 9007199254740993,`) {
		t.Errorf("counter not rendered as an exact integer:\n%s", text)
	}
	if i, j := strings.Index(text, `"aa"`), strings.Index(text, `"zz"`); i < 0 || i > j {
		t.Errorf("keys not sorted:\n%s", text)
	}
}

// TestParsePrometheusRejects: the grammar checker actually rejects the
// malformed shapes CI depends on it catching.
func TestParsePrometheusRejects(t *testing.T) {
	for _, bad := range []string{
		"no_value\n",
		"1leading_digit 3\n",
		`unterminated{le="1 3` + "\n",
		"name notanumber\n",
		"dup 1\ndup 2\n",
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted malformed exposition %q", bad)
		}
	}
}
