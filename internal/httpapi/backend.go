package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	hybridsw "repro"
	"repro/internal/cluster"
	"repro/internal/fasta"
	"repro/internal/jobs"
)

// clusterExecutor is the job subsystem's executor on both backends: the
// request's knobs resolve against the platform defaults, map onto
// cluster.Params, and run on the server's resident fleet — a one-shard
// fleet of the platform's engines on the local backend, the sharded fleet
// on the cluster backend. The report renders through the same response
// builder either way, so the ranking-identity contract makes the two
// backends byte-compatible on the wire.
type clusterExecutor struct{ s *Server }

func (e *clusterExecutor) Kind() jobs.Backend { return e.s.backend }

func (e *clusterExecutor) Execute(ctx context.Context, req jobs.Request) ([]byte, error) {
	queries, err := fasta.NewReader(strings.NewReader(req.QueriesFasta)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("queries_fasta: %w", err)
	}
	p := e.s.platform
	if req.TopK > 0 {
		p.TopK = req.TopK
	}
	if req.Policy != "" {
		p.Policy = req.Policy
	}
	p.AlignBest = req.Align
	if req.Mode != "" {
		p.Mode = req.Mode
	}
	if p.Mode == "filtered" {
		p.Filter = hybridsw.FilterSpec{K: req.FilterK, Margin: req.FilterMargin}
		// Per-stage progress lands on the job record, so GET /jobs/{id}
		// shows prefilter/rescore completion counts while the job runs.
		p.StageProgress = func(stage string, done, total int64) {
			e.s.jobs.SetStage(ctx, stage, done, total)
		}
	}
	params := hybridsw.FleetParams(p)
	if e.s.backend == jobs.BackendCluster {
		// Per-shard progress folds into the job record too; the local
		// backend's single shard is an implementation detail it hides.
		params.OnShards = func(shards []cluster.ShardStatus) {
			e.s.jobs.SetShards(ctx, viewShards(shards))
		}
	}
	rep, err := e.s.fleet.SearchContext(ctx, queries, params)
	if err != nil {
		return nil, err
	}
	return json.Marshal(e.s.buildSearchResponse(queries, rep, p.Scheme))
}

// viewShards adapts the cluster's live shard statuses to the job record's
// projection (internal/jobs stays decoupled from internal/cluster).
func viewShards(shards []cluster.ShardStatus) []jobs.ShardProgress {
	out := make([]jobs.ShardProgress, len(shards))
	for i, sh := range shards {
		out[i] = jobs.ShardProgress{
			Shard:      sh.Shard,
			State:      sh.State.String(),
			Cells:      sh.Cells,
			TotalCells: sh.TotalCells,
			Rate:       sh.Rate,
		}
	}
	return out
}

// ReadyResponse is the GET /readyz payload: which backend serves traffic
// and whether it can actually take a job right now.
type ReadyResponse struct {
	Ready    bool          `json:"ready"`
	Backend  jobs.Backend  `json:"backend"`
	Draining bool          `json:"draining"`
	Shards   []ShardHealth `json:"shards,omitempty"`
}

// ShardHealth mirrors cluster.ShardHealth in the API namespace.
type ShardHealth struct {
	Shard     int   `json:"shard"`
	Sequences int   `json:"sequences"`
	Residues  int64 `json:"residues"`
	Replicas  int   `json:"replicas"`
	Live      int   `json:"live"`
}

// handleReady is GET /readyz: 200 while the server can accept work, 503
// once it is draining or when any shard has no live replica left (a job
// submitted then would fail, so load balancers should stop routing here).
// Only the cluster backend lists its shards. /healthz stays a pure
// liveness probe.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{
		Ready:    !s.draining.Load() && s.fleet.Ready(),
		Backend:  s.backend,
		Draining: s.draining.Load(),
	}
	if s.backend == jobs.BackendCluster {
		for _, h := range s.fleet.Health() {
			resp.Shards = append(resp.Shards, ShardHealth(h))
		}
	}
	code := http.StatusOK
	if !resp.Ready {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}
