package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func TestSelfTimesSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{Name: "request", Parent: -1, Start: at(0), End: at(100)},
		{Name: "a", Parent: 0, Start: at(10), End: at(30)},
		{Name: "b", Parent: 0, Start: at(20), End: at(40)},  // overlaps a
		{Name: "c", Parent: 0, Start: at(90), End: at(120)}, // runs past the parent
		{Name: "a.inner", Parent: 1, Start: at(12), End: at(18)},
	}
	got := selfTimes(spans)
	want := []time.Duration{
		100*time.Millisecond - 30*time.Millisecond - 10*time.Millisecond, // [10,40] and [90,100]
		20*time.Millisecond - 6*time.Millisecond,
		20 * time.Millisecond,
		30 * time.Millisecond,
		6 * time.Millisecond,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestNestByContainment(t *testing.T) {
	spans := []span{
		{Name: "layer", Parent: -1, Start: at(0), End: at(100)},
		{Name: "key_switch", Parent: -1, Start: at(20), End: at(40)},
		{Name: "rotate", Parent: -1, Start: at(10), End: at(50)},
		{Name: "rescale", Parent: -1, Start: at(60), End: at(70)},
		{Name: "rotate2", Parent: -1, Start: at(70), End: at(80)},
	}
	nestByContainment(spans)
	want := map[string]int{"layer": -1, "rotate": 0, "key_switch": 2, "rescale": 0, "rotate2": 0}
	for _, s := range spans {
		if s.Parent != want[s.Name] {
			t.Errorf("parent of %s = %d, want %d", s.Name, s.Parent, want[s.Name])
		}
	}
	self := selfTimes(spans)
	if self[0] != 40*time.Millisecond || self[2] != 20*time.Millisecond {
		t.Errorf("self times layer=%v rotate=%v, want 40ms 20ms", self[0], self[2])
	}
}
