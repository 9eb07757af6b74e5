package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	hybridsw "repro"
	"repro/internal/cluster"
	"repro/internal/fasta"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/metrics"
)

// server is one swserve-equivalent instance: the httpapi handler behind a
// real loopback listener.
type server struct {
	api     *httpapi.Server
	hs      *http.Server
	base    string // http://127.0.0.1:port
	engines int    // slave loops that can run at once: per-job engines × executors
	served  chan error
}

// startServer does what swserve does at boot for workload w: load the
// database with fasta.ReadFile, build the fleet (cluster backend) and the
// server, listen, and wait for the first 200 from /readyz. events, when
// non-nil, receives the local master's event log (Platform.Events). The
// returned duration is the whole set-up.
func startServer(ctx context.Context, w workload, dbPath string, events *metrics.EventLog) (*server, time.Duration, error) {
	t0 := time.Now()
	db, err := fasta.ReadFile(dbPath)
	if err != nil {
		return nil, 0, err
	}
	platform := hybridsw.Platform{GPUs: 1, SSECores: 2, Policy: "PSS", Adjust: true, Events: events}
	engines := platform.GPUs + platform.SSECores
	var fleet *cluster.Fleet
	if w.cluster {
		const shards, replicas = 4, 2
		platform.Registry = metrics.NewRegistry()
		fleet, err = cluster.New(cluster.Config{DB: db, Shards: shards, Replicas: replicas, Registry: platform.Registry})
		if err != nil {
			return nil, 0, err
		}
		engines = shards * replicas
	}
	tpol, err := jobs.ParseTenantPolicy(w.tenantPolicy)
	if err != nil {
		return nil, 0, err
	}
	api, err := httpapi.NewWithOptions(dbPath, db, platform, httpapi.Options{
		Fleet: fleet,
		Jobs:  jobs.Config{TenantPolicy: tpol, Tenants: w.tenants},
	})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, errors.Join(err, api.Close(ctx))
	}
	s := &server{
		api:     api,
		hs:      &http.Server{Handler: api.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:    "http://" + ln.Addr().String(),
		engines: engines * jobs.DefaultExecutors,
		served:  make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	if err := s.awaitReady(ctx); err != nil {
		return nil, 0, errors.Join(err, s.stop(ctx))
	}
	return s, time.Since(t0), nil
}

// awaitReady polls /readyz on a fresh connection until it answers 200.
func (s *server) awaitReady(ctx context.Context) error {
	tr := &http.Transport{DisableKeepAlives: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 5 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("readyz: status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop shuts the listener down, drains the job subsystem and waits for the
// serve goroutine to return.
func (s *server) stop(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	err = errors.Join(err, s.api.Close(ctx))
	select {
	case serr := <-s.served:
		if !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
	case <-ctx.Done():
		err = errors.Join(err, ctx.Err())
	}
	return err
}
