package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p90 needs at least 100 samples, a p50 at least 20.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// whether at least minBeyond samples lie beyond it. xs is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	rank = min(max(rank, 0), len(s)-1)
	return s[rank], len(s)-rank-1 >= minBeyond
}

// median is the 0.5 percentile without the sample-count rule, for small
// sets of repeated measurements (set-up repetitions, replay passes).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed interval the benchmark recorded around a call into the
// program. Spans of one request share trace; parent links a child to the
// span that caused it (-1 for a root).
type span struct {
	Trace  string    `json:"trace"`
	Name   string    `json:"name"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index for use as a parent.
func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// end closes the span at index i.
func (l *spanLog) end(i int, t time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = t
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its direct children. Overlapping children (parallel work) are
// merged first, so the covered time never exceeds the parent's own.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Time, 0, len(children[i]))
		for _, c := range children[i] {
			a, b := spans[c].Start, spans[c].End
			if a.Before(s.Start) {
				a = s.Start
			}
			if b.After(s.End) {
				b = s.End
			}
			if b.After(a) {
				ivs = append(ivs, [2]time.Time{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0].Before(ivs[y][0]) })
		var covered time.Duration
		var curA, curB time.Time
		for k, iv := range ivs {
			if k == 0 || iv[0].After(curB) {
				covered += curB.Sub(curA)
				curA, curB = iv[0], iv[1]
				continue
			}
			if iv[1].After(curB) {
				curB = iv[1]
			}
		}
		covered += curB.Sub(curA)
		out[i] = s.dur() - covered
	}
	return out
}

// nestByContainment assigns each parentless span of one sequential call
// tree the innermost earlier span that contains it, for spans recorded
// flat (the CKKS stage observer reports only durations).
func nestByContainment(spans []span) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	// Outer spans first: earlier start, and on ties the longer one.
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if !sa.Start.Equal(sb.Start) {
			return sa.Start.Before(sb.Start)
		}
		return sa.dur() > sb.dur()
	})
	var stack []int
	for _, i := range order {
		s := spans[i]
		for len(stack) > 0 && !spans[stack[len(stack)-1]].End.After(s.Start) {
			stack = stack[:len(stack)-1]
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].End.Before(s.End) {
			stack = stack[:len(stack)-1]
		}
		if s.Parent < 0 && len(stack) > 0 {
			spans[i].Parent = stack[len(stack)-1]
		}
		stack = append(stack, i)
	}
}
