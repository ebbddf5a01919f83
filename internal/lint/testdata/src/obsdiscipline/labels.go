package obsdiscipline

import "strings"

// Label taint follows every local binding, not only assignments: a
// range element and a composite literal carry their operands' taint.

// badPathSegment labels by each path segment.
func badPathSegment(v *CounterVec, r *Request) {
	for _, seg := range strings.Split(r.URL.Path, "/") {
		v.With(seg).Inc() // want "unbounded value seg becomes a CounterVec.With label"
	}
}

// badPacked packs the path into the label list first.
func badPacked(v *CounterVec, r *Request) {
	labels := []string{"path", r.URL.Path}
	v.With(labels...).Inc() // want "unbounded value labels becomes a CounterVec.With label"
}
