package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mastergreen/internal/api"
	"mastergreen/internal/buildsys"
	"mastergreen/internal/change"
	"mastergreen/internal/core"
	"mastergreen/internal/events"
	"mastergreen/internal/predict"
	"mastergreen/internal/store"
)

// The serve workload wires the stack in-process the way sqd does and drives
// it over localhost HTTP with the open-loop pacer.
const (
	serveRate     = 300.0 // file-create submissions per second
	engineShards  = 4
	engineWorkers = 16
	planEpoch     = 2 * time.Millisecond // the loadtest experiment's epoch
	admissionCap  = 50000
	statusRefresh = 50 * time.Millisecond
	stateEvery    = 4  // a state read for every 4th acknowledged id
	statusEvery   = 20 // a status read every 20th submission
	setupRepeats  = 7  // set-up is cheap and short, so its median needs many samples
	drainTimeout  = 60 * time.Second
)

// defaultPredictor is the predictor core.Service uses when none is set;
// traced runs wrap this same value.
var defaultPredictor = predict.Static{Success: 0.85, Conflict: 0.05}

type serveStack struct {
	subs    []submission
	bodies  [][]byte
	ids     []string
	dir     string
	journal *store.Journal
	bus     *events.Bus
	svc     *core.Service
	hs      *http.Server
	ln      net.Listener
	served  chan struct{}
	stops   []func()

	// Traced runs only.
	handler *tracedHandler
	runner  *countingRunner
	pred    *timedPredictor
	col     *collector
}

func newServeStack(cfg runConfig, traced bool) (*serveStack, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	subs := makeSubmissions(rng, "s", int(serveRate*float64(cfg.seconds)))
	st := &serveStack{subs: subs, served: make(chan struct{})}
	for _, s := range subs {
		st.bodies = append(st.bodies, submitBody(s))
		st.ids = append(st.ids, s.id)
	}

	dir, err := os.MkdirTemp(cfg.workDir, "serve-")
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	st.dir = dir
	j, err := store.Open(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("serve: %w", err)
	}
	st.journal = j

	st.bus = events.NewBus(1024)
	var runner buildsys.StepRunner = instantRunner(subs)
	var pred predict.Predictor = defaultPredictor
	if traced {
		st.runner = &countingRunner{inner: runner}
		st.pred = &timedPredictor{inner: pred}
		runner, pred = st.runner, st.pred
		st.col = collectEvents(st.bus)
	}
	st.svc = core.NewService(benchRepo(slotsFor(len(subs))), core.Config{
		Workers: engineWorkers, Epoch: planEpoch, Shards: engineShards,
		Runner: runner, Predictor: pred, Events: st.bus,
	})
	st.svc.AttachJournal(j)
	st.svc.Start()

	srv := api.NewServer(st.svc)
	srv.SetEvents(st.bus)
	srv.EnableAdmission(admissionCap)
	st.stops = append(st.stops, srv.StartStatusRefresher(statusRefresh))
	var h http.Handler = srv
	if traced {
		st.handler = newTracedHandler(srv)
		h = st.handler
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		close(st.served)
		st.close()
		return nil, fmt.Errorf("serve: %w", err)
	}
	st.ln = ln
	st.hs = &http.Server{Handler: h}
	go func() {
		defer close(st.served)
		_ = st.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return st, nil
}

// close stops everything the stack started, waits for it, and returns the
// events a traced stack collected.
func (st *serveStack) close() []events.Event {
	if st.hs != nil {
		_ = st.hs.Close()
	}
	<-st.served
	for _, stop := range st.stops {
		stop()
	}
	st.svc.Stop()
	var evs []events.Event
	if st.col != nil {
		evs = st.col.stop()
	}
	_ = st.svc.CloseJournal() // the journal lives only for this run
	os.RemoveAll(st.dir)
	return evs
}

func runServe(cfg runConfig, traced bool) (*phase, error) {
	p := newPhase()
	var st *serveStack
	var setups []float64
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		s, err := newServeStack(cfg, traced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < setupRepeats-1 {
			s.close()
		} else {
			st = s
		}
	}
	p.set("setup_s", median(setups))

	startTimed()
	before := snapService(st.svc, st.bus)
	proc0 := snapProc()
	res := runPacer(pacerConfig{
		base: "http://" + st.ln.Addr().String(), bodies: st.bodies, ids: st.ids,
		rate: serveRate, conns: runtime.NumCPU(),
		stateEvery: stateEvery, statusEvery: statusEvery, traced: traced,
	})
	drainDeadline := time.Now().Add(drainTimeout)
	for st.svc.PendingCount() > 0 && time.Now().Before(drainDeadline) {
		time.Sleep(time.Millisecond)
	}
	proc1 := snapProc()
	p.recordPeakRSS()
	after := snapService(st.svc, st.bus)
	appends, syncs := st.journal.Appends(), st.journal.Syncs()
	evs := st.close()

	// Client-side results.
	acked := make([]bool, len(st.subs))
	submitAt := make([]op, len(st.subs))
	var submitMs, readMs []float64
	var lateMax time.Duration
	for _, o := range res.ops {
		p.attempted++
		if l := o.late(); l > lateMax {
			lateMax = l
		}
		switch {
		case o.kind == opSubmit && o.code == http.StatusAccepted:
			acked[o.idx] = true
			submitAt[o.idx] = o
			submitMs = append(submitMs, ms(o.latency()))
		case o.kind != opSubmit && o.code == http.StatusOK:
			readMs = append(readMs, ms(o.latency()))
		default:
			p.failed++
		}
	}
	if want := len(st.subs) + len(st.subs)/statusEvery; p.attempted < want {
		p.fail("pacer completed %d operations, want at least %d", p.attempted, want)
	}

	// Decisions.
	outs := firstOutcomes(st.svc.Outcomes())
	undecided := p.checkDecisions(st.subs, acked, outs)
	p.failed += undecided
	var turn []float64
	var dues []time.Time
	var cts []changeTrace
	committed := 0
	var last time.Time
	for i, s := range st.subs {
		o, ok := outs[change.ID(s.id)]
		if !acked[i] || !ok {
			continue
		}
		due := submitAt[i].due
		turn = append(turn, ms(o.At.Sub(due)))
		dues = append(dues, due)
		if o.State == change.StateCommitted {
			committed++
		}
		if o.At.After(last) {
			last = o.At
		}
		cts = append(cts, changeTrace{id: o.ID, due: due, decided: o.At, committed: o.State == change.StateCommitted})
	}
	p.checkMainline(st.svc.Repo(), committed)

	decided := len(turn)
	p.set("decided_per_s", float64(decided)/last.Sub(res.start).Seconds())
	p.set("cpu_ms_per_decision", ms(proc1.cpu-proc0.cpu)/float64(decided))
	p.set("failed_frac", float64(p.failed)/float64(p.attempted))
	p.pct("submit_p50_ms", submitMs, 0.5)
	p.pct("submit_p99_ms", submitMs, 0.99)
	p.pct("read_p99_ms", readMs, 0.99)
	p.pct("turnaround_p50_ms", turn, 0.5)
	p.pct("turnaround_p99_ms", turn, 0.99)
	p.set("core.turnaround_drift", thirdsDrift(dues, turn))
	p.set("gen.late_max_ms", ms(lateMax))
	p.primary = p.values["turnaround_p50_ms"]

	if !traced {
		return p, nil
	}
	p.recordRuntime(proc0, proc1)
	p.recordLayers(before, after, decided)
	p.set("store.appends", float64(appends))
	p.set("store.fsyncs", float64(syncs))
	p.set("store.fsyncs_per_append", ratio(int(syncs), appends))
	p.set("buildsys.step_calls", float64(st.runner.calls.Load()))
	st.pred.record(p)

	h := st.handler
	p.set("api.refused", float64(h.refused.Load()))
	var serverMs []float64
	for i, s := range st.subs {
		if sp, ok := h.submits[s.id]; ok && acked[i] {
			serverMs = append(serverMs, ms(sp.dur()))
			o := submitAt[i]
			p.spans = append(p.spans, sp,
				span{Trace: s.id, Name: "gen.submit", Parent: "change", Start: o.due, End: o.done})
		}
	}
	p.pct("api.submit_server_p50_ms", serverMs, 0.5)
	p.pct("api.submit_server_p99_ms", serverMs, 0.99)
	p.pct("api.read_server_p99_ms", h.reads, 0.99)

	p.recordTrace(cts, evs, outs)
	return p, nil
}
