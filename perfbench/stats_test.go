package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n, perMille int
		want        float64
		ok          bool
	}{
		{100, 500, 50, true},
		{100, 900, 90, true},   // exactly ten samples beyond the 90th
		{99, 900, 90, false},   // rank 90 leaves nine beyond
		{1000, 990, 990, true}, // p99 needs a thousand samples
		{999, 990, 990, false},
		{1, 500, 1, false},
		{20, 500, 10, true},
	} {
		got, ok := percentile(seq(tc.n), tc.perMille)
		if got != tc.want || ok != tc.ok {
			t.Errorf("p%d of 1..%d = %v (ok %v), want %v (ok %v)", tc.perMille/10, tc.n, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 500); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestMinSamplesMatchesPercentileRule(t *testing.T) {
	for _, pm := range []int{500, 900, 990} {
		n := minSamples(pm)
		if _, ok := percentile(seq(n), pm); !ok {
			t.Errorf("p%d: minSamples %d does not satisfy the rule", pm/10, n)
		}
		if _, ok := percentile(seq(n-1), pm); ok {
			t.Errorf("p%d: %d samples already satisfy the rule, minSamples says %d", pm/10, n-1, n)
		}
	}
	if got := minSamples(900); got != 100 {
		t.Errorf("minSamples(p90) = %d, want 100", got)
	}
	if got := minSamples(990); got != 1000 {
		t.Errorf("minSamples(p99) = %d, want 1000", got)
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if xs[0] != 3 {
		t.Error("median reordered its input")
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
}
