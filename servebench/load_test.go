package main

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/paf"
	"github.com/efficientfhe/smartpaf/internal/registry"
)

func TestPoissonScheduleIsDeterministic(t *testing.T) {
	window := 60 * time.Second
	mix := []int{0, 0, 1}
	a := poissonSchedule(7, 5, window, mix, 24)
	b := poissonSchedule(7, 5, window, mix, 24)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 5, window, mix, 24)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n != 300 {
		t.Errorf("%d arrivals in %v at 5/s, want 300", n, window)
	}
	next := map[int]int{}
	var prev time.Duration
	for _, x := range a {
		if x.Due < prev || x.Due >= window {
			t.Fatalf("arrival at %v out of order or outside the window", x.Due)
		}
		prev = x.Due
		if x.Input != next[x.Model]%24 {
			t.Fatalf("model %d got input %d, want %d", x.Model, x.Input, next[x.Model]%24)
		}
		next[x.Model]++
	}
	if next[0] != 200 || next[1] != 100 {
		t.Errorf("arrivals per model %v, want 200 and 100", next)
	}
}

// With one connection and a 100 ms service time, a request due 10 ms after
// one that holds the connection waits ~90 ms for it; its latency, timed
// from the due time, includes that wait.
func TestOpenLoopTimesFromDueWhenConnectionsBusy(t *testing.T) {
	const service = 100 * time.Millisecond
	sched := []arrival{{Due: 0}, {Due: 10 * time.Millisecond}, {Due: 500 * time.Millisecond}}
	var mu sync.Mutex
	inFlight, peak := 0, 0
	reqs := runOpen(sched, time.Now(), 1, 0, func(r *request) error {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		time.Sleep(service)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return nil
	})
	if peak != 1 {
		t.Errorf("%d requests in flight on one connection", peak)
	}
	first, second, third := reqs[0], reqs[1], reqs[2]
	if l := first.latency(); l < service || l > service+80*time.Millisecond {
		t.Errorf("first latency %v, want about %v", l, service)
	}
	if w := second.connWait(); w < 80*time.Millisecond {
		t.Errorf("second request waited %v for a connection, want about 90ms", w)
	}
	if l := second.latency(); l < 2*service-10*time.Millisecond {
		t.Errorf("second latency %v does not include its wait for the connection", l)
	}
	if l := second.latency(); l != second.end.Sub(second.due) || second.due.Sub(first.due) != 10*time.Millisecond {
		t.Errorf("second request not timed from its due time")
	}
	if w := third.connWait(); w > 50*time.Millisecond {
		t.Errorf("third request found the connection free but waited %v", w)
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	start := time.Now()
	reqs := runClosed(2, 3, start, 100*time.Millisecond, 2, func(r *request) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if len(reqs) < 6 || len(reqs) > 14 {
		t.Errorf("%d requests from 2 clients in 100ms at 20ms each", len(reqs))
	}
	for _, r := range reqs {
		if r.due.After(start.Add(100 * time.Millisecond)) {
			t.Errorf("request sent after the deadline")
		}
		if r.Input < 0 || r.Input >= 3 {
			t.Errorf("input %d outside the pool", r.Input)
		}
	}
}

func TestPlanFromShape(t *testing.T) {
	demo, err := registry.DemoModel(1, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, slots := range []int{512, 1024} {
		p := expectedPlan(demo.MLP, slots)
		if p.bsgs != demo.MLP.PreferBSGS(slots) {
			t.Errorf("slots %d: plan BSGS=%v, PreferBSGS=%v", slots, p.bsgs, !p.bsgs)
		}
	}
	naive := expectedPlan(demo.MLP, 1024)
	if naive.bsgs {
		t.Fatal("demo at 1024 slots should take the naive path")
	}
	// 16×8: diagonals 0..15 and 1017..1023; 8×4: 0..7 and 1021..1023.
	if got := naive.unitCounts()[stRotate]; got != 23+11 {
		t.Errorf("demo naive rotations %d, want 34", got)
	}
	if got := naive.layers[0][stKeySwitch]; got != 22 {
		t.Errorf("demo linear0 key switches %d, want 22", got)
	}
	wide, err := buildModel(wideModel, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	bsgs := expectedPlan(wide.MLP, 1024)
	u := bsgs.unitCounts()
	if !bsgs.bsgs || u[stRotateHoisted] != 62 || u[stDecompose] != 2 || u[stRotate] != 5 {
		t.Errorf("wide at 1024 slots: %+v", u)
	}
	// Diagonal sets from shape match the ones henn derives from weights.
	for _, lin := range []*henn.Linear{demo.MLP.Layers[0].(*henn.Linear), wide.MLP.Layers[2].(*henn.Linear)} {
		diags := shapeDiagonals(lin.In, lin.Out, 1024)
		if len(diags) != lin.In+lin.Out-1 {
			t.Errorf("%dx%d: %d diagonals", lin.Out, lin.In, len(diags))
		}
	}
}

func TestPAFOps(t *testing.T) {
	// f1 (degree 3): 1 squaring + 1 ladder product; g2 (degree 5): 2
	// squarings + 2 ladder products; plus the final x·p(x) product.
	got := pafOps(paf.MustNew(paf.FormF1G2))
	if got[stKeySwitch] != 7 || got[stRescale] != 14 {
		t.Errorf("f1_g2: %v, want 7 key switches and 14 rescales", got)
	}
	got = pafOps(paf.MustNew(paf.FormF1F1G1G1))
	if got[stKeySwitch] != 9 || got[stRescale] != 19 {
		t.Errorf("f1f1_g1g1: %v, want 9 key switches and 19 rescales", got)
	}
}

func TestReportOpsCountsFailuresAsMisses(t *testing.T) {
	b := &bench{e2e: map[string]metric{}, samples: map[string]int{}}
	start := time.Unix(0, 0)
	// Three successes, one of them over the limit, out of four sent.
	b.reportOps([]float64{100, 200, 3000}, 4, start, start.Add(2*time.Second), 1500*time.Millisecond)
	if got := b.e2e["slo_ratio"].Value; got != 0.5 {
		t.Errorf("slo_ratio = %v, want 0.5", got)
	}
	if got := b.e2e["ops_per_s"].Value; got != 1.5 {
		t.Errorf("ops_per_s = %v, want 1.5", got)
	}
	if got := b.e2e["p50_ms"].Value; got != 200 {
		t.Errorf("p50_ms = %v, want 200", got)
	}
}
