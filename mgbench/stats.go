package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported as measured rather than as a thin tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether at least minBeyond samples lie strictly above its rank. An empty
// input yields 0, false.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty input.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timing is one open-loop operation: when the schedule said it was due, when
// the pacer handed it to a connection, and when its response arrived.
type timing struct {
	due, dispatched, done time.Time
}

// latency is measured from the due time, not the send time, so a stall that
// delays later sends counts against every request it delayed.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// late is how far behind its own schedule the pacer ran for this operation.
func (t timing) late() time.Duration {
	if d := t.dispatched.Sub(t.due); d > 0 {
		return d
	}
	return 0
}

// span is one traced interval. Spans of one change share a trace id; a
// span's parent is named, and the root of a trace has no parent.
type span struct {
	Trace  string    `json:"trace"`
	Name   string    `json:"name"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover (children
// clipped to the parent, overlaps among children counted once).
func selfTimes(spans []span) map[string]time.Duration {
	type key struct{ trace, name string }
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Trace, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[key{s.Trace, s.Name}])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			total += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}
