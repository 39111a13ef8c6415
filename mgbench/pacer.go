package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

type opKind int

const (
	opSubmit opKind = iota
	opState         // GET one acknowledged change's state
	opStatus        // GET the service status
)

// op is one scheduled request and, once done, its outcome.
type op struct {
	kind opKind
	idx  int // submission index (submits and state reads)
	timing
	code int // HTTP status; 0 when the request itself failed
}

// pacerConfig describes the open-loop traffic: submission i is due at
// start + i/rate; every statusEvery-th submission also has a status read due
// with it; every stateEvery-th acknowledgement triggers a state read of that
// change, due when the acknowledgement arrived.
type pacerConfig struct {
	base        string
	bodies      [][]byte
	ids         []string
	rate        float64
	conns       int
	stateEvery  int
	statusEvery int
	traced      bool // send each submission's id in traceHeader
}

// pacerResult is every completed operation plus the schedule's start.
type pacerResult struct {
	start time.Time
	ops   []op
}

// runPacer drives the open loop over at most cfg.conns keep-alive
// connections, one per sender goroutine. The schedule never waits for
// responses: operations that find every connection busy queue in the
// dispatch channel, and their latency still counts from their due time.
// State reads are only issued for acknowledged ids, so a read can never
// overtake its own submit on another connection.
func runPacer(cfg pacerConfig) pacerResult {
	n := len(cfg.bodies)
	// Sized to every operation the run can dispatch, so neither the
	// scheduler nor a sender ever blocks on a send.
	queue := make(chan op, n+n/cfg.statusEvery+n/cfg.stateEvery+1)
	var outstanding, acks atomic.Int64
	dispatch := func(o op) {
		outstanding.Add(1)
		o.dispatched = time.Now()
		queue <- o
	}

	stop := make(chan struct{})
	results := make([][]op, cfg.conns)
	var wg sync.WaitGroup
	for w := 0; w < cfg.conns; w++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		client := &http.Client{Transport: tr}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer tr.CloseIdleConnections()
			for {
				select {
				case <-stop:
					return
				case o := <-queue:
					o.code = send(client, cfg, o)
					o.done = time.Now()
					if o.kind == opSubmit && o.code == http.StatusAccepted &&
						acks.Add(1)%int64(cfg.stateEvery) == 0 {
						dispatch(op{kind: opState, idx: o.idx, timing: timing{due: o.done}})
					}
					results[w] = append(results[w], o)
					outstanding.Add(-1)
				}
			}
		}(w)
	}

	start := time.Now()
	interval := float64(time.Second) / cfg.rate
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		dispatch(op{kind: opSubmit, idx: i, timing: timing{due: due}})
		if i%cfg.statusEvery == cfg.statusEvery-1 {
			dispatch(op{kind: opStatus, idx: i, timing: timing{due: due}})
		}
	}
	for outstanding.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	res := pacerResult{start: start}
	for _, r := range results {
		res.ops = append(res.ops, r...)
	}
	return res
}

// send performs one request and returns its HTTP status (0 on a transport
// error). The body is drained so the connection is reused.
func send(client *http.Client, cfg pacerConfig, o op) int {
	var req *http.Request
	var err error
	switch o.kind {
	case opSubmit:
		req, err = http.NewRequest(http.MethodPost, cfg.base+"/api/v1/changes", bytes.NewReader(cfg.bodies[o.idx]))
		if err == nil && cfg.traced {
			req.Header.Set(traceHeader, cfg.ids[o.idx])
		}
	case opState:
		req, err = http.NewRequest(http.MethodGet, cfg.base+"/api/v1/changes/"+cfg.ids[o.idx], nil)
	default:
		req, err = http.NewRequest(http.MethodGet, cfg.base+"/api/v1/status", nil)
	}
	if err != nil {
		return 0
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0
	}
	_, _ = io.Copy(io.Discard, resp.Body) // a short read only loses the connection
	resp.Body.Close()
	return resp.StatusCode
}
