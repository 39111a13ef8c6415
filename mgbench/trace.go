package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/events"
	"mastergreen/internal/planner"
	"mastergreen/internal/predict"
	"mastergreen/internal/repo"
	"mastergreen/internal/sim"
)

// The wrappers below are the traced run's only instruments. Each sits on a
// hook the program already accepts, so the program itself is measured
// unchanged; an untraced run installs none of them.

// collector keeps every event published on a bus in memory.
type collector struct {
	cancel func()
	done   chan struct{}
	evs    []events.Event
}

// collectEvents subscribes to bus. The buffer absorbs bursts while the
// collector goroutine is descheduled; a full buffer shows as events.dropped
// and invalidates the run.
func collectEvents(bus *events.Bus) *collector {
	ch, cancel := bus.Subscribe(1 << 16)
	c := &collector{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for ev := range ch {
			c.evs = append(c.evs, ev)
		}
	}()
	return c
}

// stop ends the subscription and returns what it saw. Call it only once
// nothing publishes any more: the bus closes the channel on cancel.
func (c *collector) stop() []events.Event {
	c.cancel()
	<-c.done
	return c.evs
}

// tracedHandler times every request the api.Server handles. Submit spans
// are keyed by the X-Trace-Id header the pacer sets in traced runs.
type tracedHandler struct {
	next    http.Handler
	refused atomic.Int64

	mu      sync.Mutex
	submits map[string]span
	reads   []float64
}

func newTracedHandler(next http.Handler) *tracedHandler {
	return &tracedHandler{next: next, submits: map[string]span{}}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	start := time.Now()
	h.next.ServeHTTP(sw, r)
	end := time.Now()
	if sw.code == http.StatusTooManyRequests || sw.code == http.StatusServiceUnavailable {
		h.refused.Add(1)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if r.Method == http.MethodPost {
		if id := r.Header.Get(traceHeader); id != "" {
			h.submits[id] = span{Trace: id, Name: "api.submit", Parent: "gen.submit", Start: start, End: end}
		}
		return
	}
	h.reads = append(h.reads, ms(end.Sub(start)))
}

// traceHeader carries the change id from the pacer to the handler wrapper.
const traceHeader = "X-Trace-Id"

// countingRunner counts the build steps the controller hands the runner.
type countingRunner struct {
	inner buildsys.StepRunner
	calls atomic.Int64
}

func (r *countingRunner) RunStep(ctx context.Context, step change.BuildStep, target string, snap repo.Snapshot) error {
	r.calls.Add(1)
	return r.inner.RunStep(ctx, step, target, snap)
}

// timedPredictor counts predictions and the wall time spent in them. It is
// safe for the concurrent shard engines.
type timedPredictor struct {
	inner predict.Predictor
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds
}

func (p *timedPredictor) PredictSuccess(c *change.Change) float64 {
	start := time.Now()
	v := p.inner.PredictSuccess(c)
	p.busy.Add(int64(time.Since(start)))
	p.calls.Add(1)
	return v
}

func (p *timedPredictor) PredictConflict(ci, cj *change.Change) float64 {
	start := time.Now()
	v := p.inner.PredictConflict(ci, cj)
	p.busy.Add(int64(time.Since(start)))
	p.calls.Add(1)
	return v
}

func (p *timedPredictor) record(ph *phase) {
	ph.set("predict.calls", float64(p.calls.Load()))
	ph.set("predict.busy_ms", float64(p.busy.Load())/1e6)
}

// timedStrategy records one span per Plan call under the sim.run span.
type timedStrategy struct {
	inner sim.Strategy
	trace string
	busy  time.Duration
	spans []span
}

func (s *timedStrategy) Name() string { return s.inner.Name() }

func (s *timedStrategy) Plan(st *sim.State) []sim.BuildSpec {
	start := time.Now()
	out := s.inner.Plan(st)
	end := time.Now()
	s.busy += end.Sub(start)
	s.spans = append(s.spans, span{Trace: s.trace, Name: "strategies.plan", Parent: "sim.run", Start: start, End: end})
	return out
}

// changeMarks is the first occurrence of each lifecycle event of one change,
// plus the start and end of its decisive (last finished) build.
type changeMarks struct {
	submitted, analysis, firstBuild, head time.Time
	starts                                map[string]time.Time
	decisiveStart, decisiveEnd            time.Time
}

// indexEvents folds the event stream into per-change marks. Events after a
// change's decision are ignored.
func indexEvents(evs []events.Event, outs map[change.ID]planner.Outcome) map[change.ID]*changeMarks {
	idx := map[change.ID]*changeMarks{}
	get := func(id change.ID) *changeMarks {
		m := idx[id]
		if m == nil {
			m = &changeMarks{starts: map[string]time.Time{}}
			idx[id] = m
		}
		return m
	}
	setFirst := func(t *time.Time, at time.Time) {
		if t.IsZero() {
			*t = at
		}
	}
	for _, ev := range evs {
		if ev.Change == "" {
			continue
		}
		if o, ok := outs[ev.Change]; ok && ev.At.After(o.At) {
			continue
		}
		m := get(ev.Change)
		switch ev.Type {
		case events.TypeSubmitted:
			setFirst(&m.submitted, ev.At)
		case events.TypeAnalysisStarted:
			setFirst(&m.analysis, ev.At)
		case events.TypeBuildStarted:
			setFirst(&m.firstBuild, ev.At)
			m.starts[ev.Build] = ev.At
		case events.TypeBuildFinished:
			if st, ok := m.starts[ev.Build]; ok {
				m.decisiveStart, m.decisiveEnd = st, ev.At
			}
		case events.TypeHeadAdvanced:
			setFirst(&m.head, ev.At)
		}
	}
	return idx
}

// changeTrace is what the workload knows about one decided change.
type changeTrace struct {
	id        change.ID
	due       time.Time // root span start: when the change was due
	ingress   time.Time // when the core saw it (zero: use the submitted event)
	decided   time.Time
	committed bool
	hotfix    bool
}

// recordChangeSpans builds each change's span tree from the event marks and
// sets the wait metrics derived from it:
//
//	change                 due → decision
//	  shard.adopt_wait     ingress → first analysis-started
//	  planner.plan_wait    analysis-started → first build-started
//	  buildsys.build       decisive build-started → build-finished
//	  arbiter.commit_wait  decisive build-finished → head-advanced
//
// The time from the first build to the decisive one (waiting on
// predecessors and re-speculation) belongs to no layer and shows as
// unattributed root self time.
func (p *phase) recordChangeSpans(cts []changeTrace, idx map[change.ID]*changeMarks) {
	var adopt, plan, build, commit, hotPlan []float64
	add := func(id change.ID, name, parent string, a, b time.Time) (float64, bool) {
		if a.IsZero() || b.IsZero() || b.Before(a) {
			return 0, false
		}
		p.spans = append(p.spans, span{Trace: string(id), Name: name, Parent: parent, Start: a, End: b})
		return ms(b.Sub(a)), true
	}
	for _, ct := range cts {
		add(ct.id, "change", "", ct.due, ct.decided)
		m := idx[ct.id]
		if m == nil {
			continue
		}
		ingress := ct.ingress
		if ingress.IsZero() {
			ingress = m.submitted
		}
		if v, ok := add(ct.id, "shard.adopt_wait", "change", ingress, m.analysis); ok {
			adopt = append(adopt, v)
		}
		if v, ok := add(ct.id, "planner.plan_wait", "change", m.analysis, m.firstBuild); ok {
			plan = append(plan, v)
			if ct.hotfix {
				hotPlan = append(hotPlan, v)
			}
		}
		if v, ok := add(ct.id, "buildsys.build", "change", m.decisiveStart, m.decisiveEnd); ok {
			build = append(build, v)
		}
		if ct.committed {
			if v, ok := add(ct.id, "arbiter.commit_wait", "change", m.decisiveEnd, m.head); ok {
				commit = append(commit, v)
			}
		}
	}
	p.pct("shard.adopt_wait_p50_ms", adopt, 0.5)
	p.pct("planner.plan_wait_p50_ms", plan, 0.5)
	p.pct("planner.plan_wait_p99_ms", plan, 0.99)
	p.pct("buildsys.build_p50_ms", build, 0.5)
	p.pct("arbiter.commit_wait_p50_ms", commit, 0.5)
	p.pct("sched.hotfix_plan_wait_p50_ms", hotPlan, 0.5)
}

// recordTrace builds the decided changes' span trees from the events the
// traced run collected and sets the metrics derived from them.
func (p *phase) recordTrace(cts []changeTrace, evs []events.Event, outs map[change.ID]planner.Outcome) {
	p.recordChangeSpans(cts, indexEvents(evs, outs))
	p.recordUnattributed("change")
}

// recordUnattributed sets trace.unattributed_frac: the share of the root
// spans' total duration that no child span covers.
func (p *phase) recordUnattributed(root string) {
	var total time.Duration
	for _, s := range p.spans {
		if s.Name == root {
			total += s.dur()
		}
	}
	if total > 0 {
		p.set("trace.unattributed_frac", float64(selfTimes(p.spans)[root])/float64(total))
	}
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
