package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/jobs"
)

// requestTimeout bounds one HTTP exchange; a request past it counts as
// failed.
const requestTimeout = 30 * time.Second

// drainTimeout bounds how long the phase waits, after the last send, for
// outstanding async jobs.
const drainTimeout = 60 * time.Second

// client is the load generator's HTTP side: one transport capped at conns
// connections to the server.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

// do sends one request and reads the whole answer.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// phase is one measured run of a traffic stream against a server.
type phase struct {
	start, end time.Time
	reqs       []*request // every request sent
}

// wall is the measured phase's duration: first due time to last answer.
func (p *phase) wall() time.Duration { return p.end.Sub(p.start) }

// loadgen drives one traffic stream through a client.
type loadgen struct {
	c     *client
	check *checker
	conns int

	mu          sync.Mutex
	outstanding []*request // async jobs submitted and not yet terminal
	polling     atomic.Bool
}

// run sends t for the given duration and waits for every answer.
func (g *loadgen) run(ctx context.Context, t *traffic, dur time.Duration) *phase {
	p := &phase{start: time.Now()}
	if t.clients > 0 {
		g.closedLoop(ctx, t, dur, p.start)
	} else {
		g.openLoop(ctx, t, dur, p.start)
	}
	g.drain(ctx, t.poll)
	p.end = p.start
	for _, r := range t.reqs {
		if r.sent.IsZero() {
			continue
		}
		p.reqs = append(p.reqs, r)
		end := r.done
		if r.async && !r.finished.IsZero() {
			end = r.finished
		}
		if end.After(p.end) {
			p.end = end
		}
	}
	return p
}

// event is one open-loop action: send req, or poll outstanding async jobs
// when req is nil.
type event struct {
	at  time.Duration
	req *request
}

// openLoop sends every request due before dur at its due time. conns
// workers take events in due order; a request waiting for a free worker is
// still timed from its due time.
func (g *loadgen) openLoop(ctx context.Context, t *traffic, dur time.Duration, start time.Time) {
	var evs []event
	async := false
	for _, r := range t.reqs {
		if r.due < dur {
			evs = append(evs, event{at: r.due, req: r})
			async = async || r.async
		}
	}
	if async {
		for at := t.poll; at < dur; at += t.poll {
			evs = append(evs, event{at: at})
		}
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	}
	var next atomic.Int64
	parallel(g.conns, func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(evs) || ctx.Err() != nil {
				return
			}
			ev := evs[i]
			pickup := time.Now()
			dueAt := start.Add(ev.at)
			if d := time.Until(dueAt); d > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			}
			if ev.req == nil {
				g.pollOnce(ctx)
				continue
			}
			r := ev.req
			r.dueAt, r.sent = dueAt, time.Now()
			ready := dueAt
			if pickup.After(ready) {
				ready = pickup
			}
			r.late = r.sent.Sub(ready)
			g.send(ctx, r)
		}
	})
}

// closedLoop runs t.clients clients, each sending its next request as soon
// as the previous one is answered, until dur has passed.
func (g *loadgen) closedLoop(ctx context.Context, t *traffic, dur time.Duration, start time.Time) {
	var next atomic.Int64
	parallel(t.clients, func() {
		for time.Since(start) < dur && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= len(t.reqs) {
				return
			}
			r := t.reqs[i]
			r.sent = time.Now()
			r.dueAt = r.sent
			g.send(ctx, r)
		}
	})
}

// parallel runs fn on n goroutines and returns once every one has returned.
// Callers that must stop on cancellation check their context inside fn.
func parallel(n int, fn func()) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}

// send submits one request: synchronously through POST /search, or as an
// async job through POST /jobs that later polls pick up.
func (g *loadgen) send(ctx context.Context, r *request) {
	path := "/search"
	if r.async {
		path = "/jobs"
	}
	code, body, err := g.c.do(ctx, http.MethodPost, path, r.body)
	if !r.async {
		r.done = time.Now()
		r.err = g.answer(r, code, body, err)
		return
	}
	if err == nil && code != http.StatusAccepted && code != http.StatusOK {
		err = fmt.Errorf("POST /jobs: status %d: %s", code, bytes.TrimSpace(body))
	}
	var view httpapi.JobView
	if err == nil {
		err = json.Unmarshal(body, &view)
	}
	if err != nil {
		r.done = time.Now()
		r.err = err
		return
	}
	r.jobID = view.ID
	g.mu.Lock()
	g.outstanding = append(g.outstanding, r)
	g.mu.Unlock()
}

// answer parses and checks a search response body.
func (g *loadgen) answer(r *request, code int, body []byte, err error) error {
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	}
	var resp httpapi.SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	r.resp = &resp
	if err := g.check.answer(r, &resp); err != nil {
		r.wrong = true
		return err
	}
	return nil
}

// pollOnce polls every outstanding async job once (GET /jobs/{id}) and
// fetches the result of each that finished. A poll that finds another poll
// still running is skipped: polls are periodic, so the next one catches up.
func (g *loadgen) pollOnce(ctx context.Context) {
	if !g.polling.CompareAndSwap(false, true) {
		return
	}
	defer g.polling.Store(false)
	g.mu.Lock()
	list := append([]*request(nil), g.outstanding...)
	g.mu.Unlock()
	var still []*request
	for _, r := range list {
		if !g.pollJob(ctx, r) {
			still = append(still, r)
		}
	}
	g.mu.Lock()
	// Keep jobs submitted while this poll ran.
	g.outstanding = append(still, g.outstanding[len(list):]...)
	g.mu.Unlock()
}

// pollJob polls one async job and reports whether it reached a final state.
func (g *loadgen) pollJob(ctx context.Context, r *request) bool {
	code, body, err := g.c.do(ctx, http.MethodGet, "/jobs/"+r.jobID, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /jobs/%s: status %d", r.jobID, code)
	}
	var view httpapi.JobView
	if err == nil {
		err = json.Unmarshal(body, &view)
	}
	if err != nil {
		r.done, r.err = time.Now(), err
		return true
	}
	switch view.State {
	case jobs.StateQueued, jobs.StateRunning:
		return false
	case jobs.StateDone:
		if view.Finished != nil {
			r.finished = *view.Finished
		}
		code, body, err := g.c.do(ctx, http.MethodGet, "/jobs/"+r.jobID+"/result", nil)
		r.done = time.Now()
		r.err = g.answer(r, code, body, err)
	case jobs.StateFailed, jobs.StateCanceled:
		r.done, r.err = time.Now(), fmt.Errorf("job %s %s: %s", r.jobID, view.State, view.Error)
	default:
		r.done, r.err = time.Now(), fmt.Errorf("job %s in unknown state %q", r.jobID, view.State)
	}
	return true
}

// drain polls until every async job is final or drainTimeout passes; jobs
// still open then count as failed.
func (g *loadgen) drain(ctx context.Context, every time.Duration) {
	deadline := time.Now().Add(drainTimeout)
	for {
		g.mu.Lock()
		n := len(g.outstanding)
		g.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			break
		}
		select {
		case <-ctx.Done():
		case <-time.After(every):
		}
		g.pollOnce(ctx)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.outstanding {
		r.done, r.err = time.Now(), fmt.Errorf("job %s not finished within %s of the last send", r.jobID, drainTimeout)
	}
	g.outstanding = nil
}
