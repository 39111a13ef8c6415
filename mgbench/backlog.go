package main

import (
	"fmt"
	"math/rand"
	"time"

	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/predict"
	"mastergreen/internal/sched"
)

// The backlog workload is a post-outage queue: every change is already
// pending when the service starts, and the timed phase is the drain.
const (
	backlogChains = 32 // chained creates per subtree
	hotfixEvery   = 64 // one P0 hotfix per this many changes
)

type backlogStack struct {
	subs []submission
	bus  *events.Bus
	svc  *core.Service

	// Traced runs only.
	runner *countingRunner
	pred   *timedPredictor
	col    *collector
}

// newBacklogStack builds the service and submits the whole backlog through
// core.Service.Submit, without starting the planner.
func newBacklogStack(cfg runConfig, traced bool) (*backlogStack, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	subs := makeSubmissions(rng, "b", backlogChains*subtrees)
	markHotfixes(rng, subs, hotfixEvery)
	st := &backlogStack{subs: subs, bus: events.NewBus(1024)}

	var runner buildsys.StepRunner = instantRunner(subs)
	var pred predict.Predictor = defaultPredictor
	if traced {
		st.runner = &countingRunner{inner: runner}
		st.pred = &timedPredictor{inner: pred}
		runner, pred = st.runner, st.pred
		st.col = collectEvents(st.bus)
	}
	st.svc = core.NewService(benchRepo(backlogChains), core.Config{
		Workers: engineWorkers, Epoch: planEpoch, Shards: engineShards,
		Runner: runner, Predictor: pred, Events: st.bus, Sched: sched.Default(),
	})
	for _, s := range subs {
		if err := st.svc.Submit(newChange(s)); err != nil {
			st.close()
			return nil, fmt.Errorf("backlog: submit %s: %w", s.id, err)
		}
	}
	return st, nil
}

func (st *backlogStack) close() []events.Event {
	st.svc.Stop()
	if st.col != nil {
		return st.col.stop()
	}
	return nil
}

func runBacklog(cfg runConfig, traced bool) (*phase, error) {
	var reps []*phase
	var setups []float64
	err := repeatFor(cfg.duration(), func() error {
		start := time.Now()
		st, err := newBacklogStack(cfg, traced)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		reps = append(reps, drainBacklog(st, traced))
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Set-up is timed several times even when one drain fills the run.
	for len(setups) < setupRepeats {
		start := time.Now()
		st, err := newBacklogStack(cfg, traced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		st.close()
	}
	p := mergeReps(reps)
	p.set("setup_s", median(setups))
	return p, nil
}

// drainBacklog starts the service, waits until nothing is pending, and
// checks and measures the drain.
func drainBacklog(st *backlogStack, traced bool) *phase {
	p := newPhase()
	startTimed()
	before := snapService(st.svc, st.bus)
	proc0 := snapProc()
	start := time.Now()
	st.svc.Start()
	deadline := start.Add(drainTimeout)
	for st.svc.PendingCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	proc1 := snapProc()
	p.recordPeakRSS()
	after := snapService(st.svc, st.bus)
	evs := st.close()

	outs := firstOutcomes(st.svc.Outcomes())
	acked := make([]bool, len(st.subs))
	for i := range acked {
		acked[i] = true // Submit returned nil for every one
	}
	p.attempted = len(st.subs)
	p.failed = p.checkDecisions(st.subs, acked, outs)

	var turn, hot []float64
	var cts []changeTrace
	var last time.Time
	committed := 0
	for _, s := range st.subs {
		o, ok := outs[change.ID(s.id)]
		if !ok {
			continue
		}
		t := ms(o.At.Sub(start))
		turn = append(turn, t)
		if s.hotfix {
			hot = append(hot, t)
		}
		if o.State == change.StateCommitted {
			committed++
		}
		if o.At.After(last) {
			last = o.At
		}
		cts = append(cts, changeTrace{id: o.ID, due: start, ingress: start, decided: o.At,
			committed: o.State == change.StateCommitted, hotfix: s.hotfix})
	}
	p.checkMainline(st.svc.Repo(), committed)

	decided := len(turn)
	drain := last.Sub(start)
	p.set("decided_per_s", float64(decided)/drain.Seconds())
	p.set("cpu_ms_per_decision", ms(proc1.cpu-proc0.cpu)/float64(decided))
	p.set("failed_frac", float64(p.failed)/float64(p.attempted))
	p.pct("turnaround_p50_ms", turn, 0.5)
	p.pct("turnaround_p99_ms", turn, 0.99)
	p.pct("hotfix_turnaround_p50_ms", hot, 0.5)
	p.primary = ms(drain)

	if !traced {
		return p
	}
	p.recordRuntime(proc0, proc1)
	p.recordLayers(before, after, decided)
	p.set("buildsys.step_calls", float64(st.runner.calls.Load()))
	st.pred.record(p)
	p.recordTrace(cts, evs, outs)
	return p
}
