package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mastergreen/internal/arbiter"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/conflict"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/planner"
	"mastergreen/internal/repo"
	"mastergreen/internal/shard"
)

// phase is what one measured repetition of a workload produced.
type phase struct {
	values    map[string]float64
	samples   map[string]int // sample count behind each percentile
	thin      map[string]bool
	reps      int // repetitions merged into this phase
	attempted int
	failed    int
	problems  []string // failed output checks
	// primary is the workload's headline cost (lower is better) that
	// trace.overhead_frac compares between untraced and traced phases.
	primary float64
	spans   []span
}

func newPhase() *phase {
	return &phase{reps: 1, values: map[string]float64{}, samples: map[string]int{}, thin: map[string]bool{}}
}

func (p *phase) set(name string, v float64) { p.values[name] = v }

// pct records the q-percentile of xs under name with its sample count.
func (p *phase) pct(name string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	p.values[name] = v
	p.samples[name] = len(xs)
	p.thin[name] = !ok
}

func (p *phase) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// mergeReps combines repetitions: each metric is the median over the
// repetitions that reported it; counts and checks accumulate.
func mergeReps(reps []*phase) *phase {
	out := newPhase()
	out.reps = len(reps)
	vals := map[string][]float64{}
	var primaries []float64
	for k, r := range reps {
		for name, v := range r.values {
			vals[name] = append(vals[name], v)
		}
		for name, n := range r.samples {
			out.samples[name] += n
		}
		for name, t := range r.thin {
			out.thin[name] = out.thin[name] || t
		}
		out.attempted += r.attempted
		out.failed += r.failed
		out.problems = append(out.problems, r.problems...)
		for _, s := range r.spans {
			s.Trace = fmt.Sprintf("rep%d/%s", k, s.Trace)
			out.spans = append(out.spans, s)
		}
		primaries = append(primaries, r.primary)
	}
	for k, v := range vals {
		out.values[k] = median(v)
	}
	out.primary = median(primaries)
	return out
}

// repeatFor calls rep at least once and then again while the run time d is
// not used up, rounding to the nearest whole repetition: another one starts
// only if it is expected to end no more than half a repetition past d.
func repeatFor(d time.Duration, rep func() error) error {
	began := time.Now()
	for {
		start := time.Now()
		if err := rep(); err != nil {
			return err
		}
		if time.Since(began)+time.Since(start)/2 > d {
			return nil
		}
	}
}

// procSnap is the process-wide resource counters at one instant.
type procSnap struct {
	cpu      time.Duration
	gcCycles uint64
	allocB   uint64
	pauseNs  uint64
}

func snapProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCycles: s[0].Value.Uint64(),
		allocB:   s[1].Value.Uint64(),
		pauseNs:  ms.PauseTotalNs,
	}
}

// recordRuntime sets the Go runtime metrics for the interval a..b.
func (p *phase) recordRuntime(a, b procSnap) {
	p.set("go.gc_cycles", float64(b.gcCycles-a.gcCycles))
	p.set("go.gc_pause_ms", float64(b.pauseNs-a.pauseNs)/1e6)
	p.set("go.alloc_mb", float64(b.allocB-a.allocB)/(1<<20))
}

// startTimed readies the process for a timed phase: it collects the garbage
// set-up left, returns freed memory to the OS, and restarts the kernel's
// peak-RSS mark, so the phase's memory figures are its own. Where the mark
// cannot be reset, the peak covers the whole process so far.
func startTimed() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// recordPeakRSS sets rss_peak_mb from the kernel's peak-RSS mark (VmHWM).
func (p *phase) recordPeakRSS() {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		p.fail("peak RSS: %v", err)
		return
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				p.fail("peak RSS: %v", err)
				return
			}
			p.set("rss_peak_mb", kb/1024)
			return
		}
	}
	p.fail("peak RSS: no VmHWM in /proc/self/status")
}

// svcSnap is the service's public work counters at one instant.
type svcSnap struct {
	an  conflict.Stats
	pl  planner.Stats
	sh  shard.Stats
	arb arbiter.Stats
	bs  buildsys.Stats
	ev  events.Stats
}

func snapService(svc *core.Service, bus *events.Bus) svcSnap {
	return svcSnap{
		an: svc.AnalyzerStats(), pl: svc.PlannerStats(), sh: svc.ShardStats(),
		arb: svc.ArbiterStats(), bs: svc.BuildStats(), ev: bus.Stats(),
	}
}

// recordLayers sets the counter-based per-layer metrics from the deltas
// between a and b; decisions is the number of changes decided in between.
func (p *phase) recordLayers(a, b svcSnap, decisions int) {
	p.set("conflict.analyses", float64(b.an.AnalyzedChanges-a.an.AnalyzedChanges))
	p.set("conflict.graph_builds", float64(b.an.GraphBuilds-a.an.GraphBuilds))
	p.set("conflict.pairs_rescanned", float64(b.an.PairsRescanned-a.an.PairsRescanned))
	p.set("conflict.pair_cache_hits", float64(b.an.PairCacheHits-a.an.PairCacheHits))
	p.set("conflict.reused_analyses", float64(b.an.ReusedAnalyses-a.an.ReusedAnalyses))

	p.set("planner.plans_computed", float64(b.pl.PlansComputed-a.pl.PlansComputed))
	p.set("planner.plans_skipped", float64(b.pl.PlansSkipped-a.pl.PlansSkipped))
	p.set("planner.prep_ops_per_build", ratio(b.pl.PrepOps()-a.pl.PrepOps(), b.pl.BuildsStarted-a.pl.BuildsStarted))

	p.set("shard.partitions", float64(b.sh.Partitions-a.sh.Partitions))
	p.set("shard.heavy_partitions", float64(b.sh.HeavyPartitions-a.sh.HeavyPartitions))
	p.set("shard.rebalanced", float64(b.sh.Rebalanced-a.sh.Rebalanced))

	p.set("arbiter.commits", float64(b.arb.Commits-a.arb.Commits))
	p.set("arbiter.cross_shard_rejects", float64(b.arb.CrossShardRejects-a.arb.CrossShardRejects))
	p.set("arbiter.max_queue_depth", float64(b.arb.MaxQueueDepth))

	p.set("buildsys.builds_per_decision", ratio(b.bs.Builds-a.bs.Builds, decisions))
	p.set("buildsys.aborted", float64(b.bs.Aborted-a.bs.Aborted))
	hits := b.bs.SkippedCache - a.bs.SkippedCache
	p.set("buildsys.cache_hit_frac", ratio(hits, hits+b.bs.CacheMisses-a.bs.CacheMisses))
	useful, wasted := b.bs.UsefulTime-a.bs.UsefulTime, b.bs.WastedTime-a.bs.WastedTime
	p.set("buildsys.useful_frac", ratio(int(useful), int(useful+wasted)))

	p.set("events.published", float64(b.ev.Published-a.ev.Published))
	dropped := b.ev.Dropped - a.ev.Dropped
	p.set("events.dropped", float64(dropped))
	if dropped > 0 {
		p.fail("events bus dropped %d events: the trace is incomplete", dropped)
	}
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// firstOutcomes indexes the first decision recorded for each change: in
// sharded mode a bounced duplicate may follow, and the first one is final.
func firstOutcomes(outs []planner.Outcome) map[change.ID]planner.Outcome {
	m := make(map[change.ID]planner.Outcome, len(outs))
	for _, o := range outs {
		if _, ok := m[o.ID]; !ok {
			m[o.ID] = o
		}
	}
	return m
}

// checkDecisions verifies that every acknowledged submission was decided
// and that the decision matches its ground truth: non-broken creates commit
// and broken ones are rejected. It returns the number left undecided.
func (p *phase) checkDecisions(subs []submission, acked []bool, outs map[change.ID]planner.Outcome) int {
	undecided, wrong := 0, 0
	for i, s := range subs {
		o, ok := outs[change.ID(s.id)]
		if !acked[i] {
			if ok {
				p.fail("%s was decided but never acknowledged", s.id)
			}
			continue
		}
		switch {
		case !ok:
			undecided++
		case o.State == change.StateCommitted && s.broken:
			wrong++
			p.fail("%s is broken but committed", s.id)
		case o.State == change.StateRejected && !s.broken:
			wrong++
			if wrong <= 3 {
				p.fail("%s is not broken but was rejected: %s", s.id, o.Reason)
			}
		}
	}
	if wrong > 3 {
		p.fail("%d decisions contradict ground truth in total", wrong)
	}
	if undecided > 0 {
		p.fail("%d acknowledged changes were never decided", undecided)
	}
	return undecided
}

// checkMainline scans mainline one commit at a time: every path a commit
// changed must be free of broken content, and the number of commits must
// equal the number of committed decisions.
func (p *phase) checkMainline(r *repo.Repo, committed int) {
	if got := r.Len() - 1; got != committed {
		p.fail("mainline has %d commits but %d changes were committed", got, committed)
	}
	prev, err := r.At(0)
	if err != nil {
		p.fail("mainline root: %v", err)
		return
	}
	for seq := 1; seq < r.Len(); seq++ {
		c, err := r.At(seq)
		if err != nil {
			p.fail("mainline commit %d: %v", seq, err)
			return
		}
		snap := c.Snapshot()
		for _, path := range snap.ChangedPaths(prev.Snapshot()) {
			if content, ok := snap.Read(path); ok && strings.Contains(content, "BROKEN") {
				p.fail("mainline commit %d (%s) contains broken %s", seq, c.ID, path)
			}
		}
		prev = c
	}
}

// thirdsDrift is the ratio of the 90th-percentile turnaround of the last
// third of the submissions (by due time) to that of the first third.
func thirdsDrift(dues []time.Time, turn []float64) float64 {
	if len(dues) < 3 {
		return 0
	}
	idx := make([]int, len(dues))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return dues[idx[a]].Before(dues[idx[b]]) })
	third := len(idx) / 3
	var first, last []float64
	for _, i := range idx[:third] {
		first = append(first, turn[i])
	}
	for _, i := range idx[len(idx)-third:] {
		last = append(last, turn[i])
	}
	f, _ := percentile(first, 0.9)
	l, _ := percentile(last, 0.9)
	if f == 0 {
		return 0
	}
	return l / f
}
