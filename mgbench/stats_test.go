package main

import (
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	v, ok := percentile(xs, 0.99)
	if v != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it and must be flagged")
	}
	if v, ok := percentile(xs[:21], 0.5); v != 11 || !ok {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11 with 10 beyond", v, ok)
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Fatalf("empty percentile = %v, %v", v, ok)
	}
	// The input order must not matter and must not be disturbed.
	rev := []float64{5, 4, 3, 2, 1}
	if v, _ := percentile(rev, 0.5); v != 3 || rev[0] != 5 {
		t.Fatalf("p50 of reversed = %v (input now %v)", v, rev)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	// A request due at 10ms whose connection was busy until 50ms, answered
	// at 52ms: its latency is 42ms, not the 2ms the wire saw.
	op := timing{due: t0.Add(10 * time.Millisecond), dispatched: t0.Add(11 * time.Millisecond),
		done: t0.Add(52 * time.Millisecond)}
	if got := op.latency(); got != 42*time.Millisecond {
		t.Fatalf("latency = %v, want 42ms", got)
	}
	if got := op.late(); got != time.Millisecond {
		t.Fatalf("pacer lateness = %v, want 1ms", got)
	}
	early := timing{due: t0.Add(5 * time.Millisecond), dispatched: t0}
	if got := early.late(); got != 0 {
		t.Fatalf("early dispatch lateness = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(msec int) time.Time { return time.Unix(0, 0).Add(time.Duration(msec) * time.Millisecond) }
	spans := []span{
		{Trace: "c1", Name: "change", Start: at(0), End: at(100)},
		// Overlapping children: union 10..50 = 40ms.
		{Trace: "c1", Name: "client", Parent: "change", Start: at(10), End: at(30)},
		{Trace: "c1", Name: "wait", Parent: "change", Start: at(20), End: at(50)},
		// Grandchild inside client: 5ms of client is server time.
		{Trace: "c1", Name: "server", Parent: "client", Start: at(12), End: at(17)},
		// A child that spills past its parent is clipped: covers 90..100.
		{Trace: "c1", Name: "commit", Parent: "change", Start: at(90), End: at(120)},
		// Another trace's spans never count against c1.
		{Trace: "c2", Name: "change", Start: at(0), End: at(10)},
		{Trace: "c2", Name: "wait", Parent: "change", Start: at(0), End: at(10)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"change": 50*time.Millisecond + 0, // c1: 100-40-10; c2: 10-10
		"client": 15 * time.Millisecond,
		"wait":   40 * time.Millisecond, // 30 (c1) + 10 (c2)
		"server": 5 * time.Millisecond,
		"commit": 30 * time.Millisecond,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
}
