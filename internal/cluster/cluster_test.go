package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/farrar"
	"repro/internal/metrics"
	"repro/internal/prefilter"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
	"repro/internal/wire"
)

func testDB(t *testing.T, name string, scale float64, seed int64) []*seq.Sequence {
	t.Helper()
	db, err := hybridsw.GenerateDatabase(name, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// rankingJSON projects results onto exactly the fields the ranking-identity
// contract covers (query identity plus the full hit lists, alignment
// payloads included) and serializes them, so "byte-identical" is literal.
func rankingJSON(t *testing.T, perQuery []hybridsw.QueryResult) string {
	t.Helper()
	type row struct {
		Query string
		Hits  []wire.Hit
	}
	rows := make([]row, len(perQuery))
	for i, q := range perQuery {
		rows[i] = row{Query: q.Query, Hits: q.Hits}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// bruteForce is the independent ranking oracle: scalar sw.Score of every
// query against every database sequence, ranked under wire.HitLess. Each
// query scores on its own goroutine; the scalar DP dominates the test's
// run time under -race.
func bruteForce(queries, db []*seq.Sequence, s score.Scheme) [][]wire.Hit {
	out := make([][]wire.Hit, len(queries))
	var wg sync.WaitGroup
	for qi, q := range queries {
		wg.Add(1)
		go func(qi int, q *seq.Sequence) {
			defer wg.Done()
			hits := make([]wire.Hit, len(db))
			for i, d := range db {
				hits[i] = wire.Hit{SeqID: d.ID, Index: i, Score: sw.Score(q.Residues, d.Residues, s)}
			}
			wire.SortHits(hits)
			out[qi] = hits
		}(qi, q)
	}
	wg.Wait()
	return out
}

// checkOracle holds a backend's hits to the brute-force reference. A full
// scan must equal the reference cut to top-k. A filtered scan may miss
// hits, but every hit it reports must be a database sequence whose score
// stays at or below its exact score, and its i-th best may not beat the
// reference's i-th best.
func checkOracle(t *testing.T, backend, mode string, topK int, perQuery []hybridsw.QueryResult, ref [][]wire.Hit) {
	t.Helper()
	for qi, qr := range perQuery {
		want := ref[qi]
		if topK > 0 && len(want) > topK {
			want = want[:topK]
		}
		if mode == "full" {
			if len(qr.Hits) != len(want) {
				t.Errorf("%s query %s: %d hits, oracle %d", backend, qr.Query, len(qr.Hits), len(want))
				continue
			}
			for i, h := range qr.Hits {
				if h.SeqID != want[i].SeqID || h.Index != want[i].Index || h.Score != want[i].Score {
					t.Errorf("%s query %s hit %d = {%s %d %d}, oracle {%s %d %d}", backend, qr.Query, i,
						h.SeqID, h.Index, h.Score, want[i].SeqID, want[i].Index, want[i].Score)
				}
			}
			continue
		}
		exact := map[int]wire.Hit{}
		for _, h := range ref[qi] {
			exact[h.Index] = h
		}
		if len(qr.Hits) > len(want) {
			t.Errorf("%s query %s: %d filtered hits exceed the oracle's %d", backend, qr.Query, len(qr.Hits), len(want))
		}
		for i, h := range qr.Hits {
			e, ok := exact[h.Index]
			if !ok || e.SeqID != h.SeqID {
				t.Errorf("%s query %s: filtered hit {%s %d} is not a database sequence", backend, qr.Query, h.SeqID, h.Index)
				continue
			}
			if h.Score > e.Score {
				t.Errorf("%s query %s: filtered score %d of %s exceeds its exact %d", backend, qr.Query, h.Score, h.SeqID, e.Score)
			}
			if i < len(want) && h.Score > want[i].Score {
				t.Errorf("%s query %s: filtered rank %d scores %d above the oracle's %d", backend, qr.Query, i, h.Score, want[i].Score)
			}
		}
	}
}

// TestClusterMatchesLocalRanking is the ranking-identity property test:
// across a seeded scheme x database x mode x top-k matrix, the cluster
// scatter-gather merge must be byte-identical to the local backend, and
// both must agree with a brute-force oracle that shares no code with the
// fleet.
func TestClusterMatchesLocalRanking(t *testing.T) {
	altScheme := hybridsw.DefaultScheme()
	altScheme.Gap = score.AffineGap(5, 1)
	schemes := []struct {
		name string
		s    hybridsw.Scheme
	}{
		{"blosum62-10-2", hybridsw.DefaultScheme()},
		{"blosum62-5-1", altScheme},
	}
	dbs := []struct {
		name  string
		scale float64
		seed  int64
	}{
		{"Ensembl Dog Proteins", 0.0006, 13},
		{"UniProtKB/SwissProt", 0.0015, 2},
	}
	for _, dbc := range dbs {
		db := testDB(t, dbc.name, dbc.scale, dbc.seed)
		queries := hybridsw.GenerateQueries(db, 3, 40, 100, dbc.seed+1)
		for _, sc := range schemes {
			ref := bruteForce(queries, db, sc.s)
			for _, mode := range []string{"full", "filtered"} {
				for _, topK := range []int{0, 3} {
					// Exercise the alignment-stripping path on one cell of
					// the matrix; tracebacks are expensive to run everywhere.
					align := mode == "full" && topK == 3
					name := fmt.Sprintf("%s/%s/%s/topk=%d", dbc.name, sc.name, mode, topK)
					t.Run(name, func(t *testing.T) {
						local, err := hybridsw.Search(queries, db, hybridsw.Platform{
							SSECores: 1, Policy: "PSS", TopK: topK,
							Scheme: sc.s, Mode: mode, AlignBest: align,
						})
						if err != nil {
							t.Fatal(err)
						}
						fleet, err := cluster.New(cluster.Config{
							DB: db, Shards: 3, Replicas: 2, Scheme: sc.s,
						})
						if err != nil {
							t.Fatal(err)
						}
						rep, err := fleet.Search(queries, cluster.Params{
							Policy: "PSS", TopK: topK, Mode: mode, AlignBest: align,
						})
						if err != nil {
							t.Fatal(err)
						}
						got, want := rankingJSON(t, rep.PerQuery), rankingJSON(t, local.PerQuery)
						if got != want {
							t.Errorf("cluster ranking diverges from local:\n got %s\nwant %s", got, want)
						}
						checkOracle(t, "local", mode, topK, local.PerQuery, ref)
						checkOracle(t, "cluster", mode, topK, rep.PerQuery, ref)
						if mode == "filtered" {
							if rep.Filter == nil || local.Filter == nil {
								t.Fatal("filtered report missing Filter stats")
							}
							// Residue accounting must sum back to the local
							// backend's totals; rescored cells may exceed them
							// by at most one padding cell per (shard, query)
							// pair (a windowless shard prefilter still appends
							// a 1-cell rescore task).
							if rep.Filter.ResiduesScanned != local.Filter.ResiduesScanned ||
								rep.Filter.FullScanCells != local.Filter.FullScanCells {
								t.Errorf("filter accounting diverges: cluster %+v local %+v", rep.Filter, local.Filter)
							}
							slack := int64(3 * len(queries))
							if rep.Filter.RescoredCells < local.Filter.RescoredCells ||
								rep.Filter.RescoredCells > local.Filter.RescoredCells+slack {
								t.Errorf("rescored cells %d outside [%d, %d+%d]",
									rep.Filter.RescoredCells, local.Filter.RescoredCells, local.Filter.RescoredCells, slack)
							}
						} else if rep.Cells != local.Cells {
							t.Errorf("cell totals diverge: cluster %d local %d", rep.Cells, local.Cells)
						}
					})
				}
			}
		}
	}
}

// TestClusterFailover kills a shard's replica mid-scan and asserts the
// surviving replica finishes the job with results still identical to the
// local backend — the e2e counterpart of the sim scenario.
func TestClusterFailover(t *testing.T) {
	db := testDB(t, "Ensembl Dog Proteins", 0.002, 7)
	queries := hybridsw.GenerateQueries(db, 5, 80, 160, 8)
	local, err := hybridsw.Search(queries, db, hybridsw.Platform{SSECores: 1, TopK: 4})
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	fleet, err := cluster.New(cluster.Config{DB: db, Shards: 2, Replicas: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Kill shard 0's first replica the moment the shard reports real
	// progress, so the crash lands mid-scan rather than before or after.
	var kill sync.Once
	rep, err := fleet.SearchContext(context.Background(), queries, cluster.Params{
		TopK: 4,
		OnShards: func(shards []cluster.ShardStatus) {
			if shards[0].Cells > 0 {
				kill.Do(func() {
					if err := fleet.KillReplica(0, 0); err != nil {
						t.Error(err)
					}
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rankingJSON(t, rep.PerQuery), rankingJSON(t, local.PerQuery); got != want {
		t.Errorf("post-failover ranking diverges from local:\n got %s\nwant %s", got, want)
	}
	if rep.Shards[0].Failovers < 1 {
		t.Errorf("shard 0 absorbed no failover (report %+v)", rep.Shards[0])
	}
	if !fleet.Ready() {
		t.Error("fleet not ready: surviving replicas should keep every shard live")
	}
	if err := fleet.ReviveReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	health := fleet.Health()
	if health[0].Live != 2 {
		t.Errorf("revived shard 0 reports %d live replicas, want 2", health[0].Live)
	}
}

// TestFilteredFailsWithoutCPUReplica pins that a filtered search fails
// promptly when a shard's only CPU replica is dead, before the job or
// mid-scan: the surviving GPU engine cannot run prefilter or rescore tasks,
// so waiting on it would hang until ctx ends. A full scan on the same fleet
// still completes on the GPU.
func TestFilteredFailsWithoutCPUReplica(t *testing.T) {
	db := testDB(t, "Ensembl Dog Proteins", 0.002, 41)
	queries := hybridsw.GenerateQueries(db, 4, 80, 160, 42)
	fleet, err := cluster.New(cluster.Config{DB: db, GPUs: 1, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	const cpu = 1 // the GPU engines come first
	filtered := func(onShards func([]cluster.ShardStatus)) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		start := time.Now()
		_, err := fleet.SearchContext(ctx, queries, cluster.Params{Mode: "filtered", OnShards: onShards})
		if err == nil || ctx.Err() != nil {
			t.Fatalf("filtered search without a CPU replica: err = %v, ctx = %v", err, ctx.Err())
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("filtered search took %v to fail", d)
		}
	}

	if err := fleet.KillReplica(0, cpu); err != nil {
		t.Fatal(err)
	}
	filtered(nil)
	rep, err := fleet.Search(queries, cluster.Params{TopK: 1})
	if err != nil {
		t.Fatalf("full scan on the GPU: %v", err)
	}
	if len(rep.PerQuery) != len(queries) {
		t.Errorf("full scan returned %d queries, want %d", len(rep.PerQuery), len(queries))
	}

	if err := fleet.ReviveReplica(0, cpu); err != nil {
		t.Fatal(err)
	}
	var kill sync.Once
	filtered(func(shards []cluster.ShardStatus) {
		if shards[0].Cells > 0 {
			kill.Do(func() {
				if err := fleet.KillReplica(0, cpu); err != nil {
					t.Error(err)
				}
			})
		}
	})
}

// TestReplicaTelemetry pins that cluster replicas publish the kernel and
// prefilter telemetry: a registry-backed filtered search over several
// shards must move farrar_fallback_total and every prefilter_* family.
func TestReplicaTelemetry(t *testing.T) {
	db := testDB(t, "Ensembl Dog Proteins", 0.001, 31)
	queries := hybridsw.GenerateQueries(db, 2, 60, 120, 32)
	reg := metrics.NewRegistry()
	fleet, err := cluster.New(cluster.Config{DB: db, Shards: 3, Replicas: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Search(queries, cluster.Params{Mode: "filtered"}); err != nil {
		t.Fatal(err)
	}
	kmet := farrar.NewMetrics(reg)
	var fallback float64
	for _, tier := range []string{farrar.Tier8, farrar.Tier16, farrar.TierScalar} {
		fallback += kmet.Fallback.With(tier).Value()
	}
	if fallback == 0 {
		t.Error("farrar_fallback_total stayed zero")
	}
	pmet := prefilter.NewMetrics(reg)
	for name, v := range map[string]float64{
		"prefilter_patterns_compiled_total":   pmet.PatternsCompiled.Value(),
		"prefilter_residues_scanned_total":    pmet.ResiduesScanned.Value(),
		"prefilter_windows_emitted_total":     pmet.WindowsEmitted.Value(),
		"prefilter_selectivity_ratio":         float64(pmet.Selectivity.Count()),
		"prefilter_rescore_cells_saved_total": pmet.RescoreCellsSaved.Value(),
	} {
		if v == 0 {
			t.Errorf("%s stayed zero", name)
		}
	}
}

// TestReportAggregatesGCUPS is the regression test for cross-shard
// throughput accounting: Report.Cells must sum every shard's work (not
// just the last completing engine's), with a per-shard breakdown.
func TestReportAggregatesGCUPS(t *testing.T) {
	db := testDB(t, "Ensembl Dog Proteins", 0.001, 21)
	queries := hybridsw.GenerateQueries(db, 3, 60, 120, 22)
	fleet, err := cluster.New(cluster.Config{DB: db, Shards: 3, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Search(queries, cluster.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != 3 {
		t.Fatalf("%d shard reports, want 3", len(rep.Shards))
	}
	var sum int64
	for _, s := range rep.Shards {
		if s.Cells <= 0 {
			t.Errorf("shard %d reports %d cells", s.Shard, s.Cells)
		}
		if s.Elapsed <= 0 || s.GCUPS <= 0 {
			t.Errorf("shard %d breakdown incomplete: %+v", s.Shard, s)
		}
		sum += s.Cells
	}
	if rep.Cells != sum {
		t.Errorf("Report.Cells = %d, want the cross-shard sum %d", rep.Cells, sum)
	}
	var queryRes, dbRes int64
	for _, q := range queries {
		queryRes += int64(q.Len())
	}
	for _, d := range db {
		dbRes += int64(d.Len())
	}
	if want := queryRes * dbRes; rep.Cells != want {
		t.Errorf("Report.Cells = %d, want |queries| x |db| = %d", rep.Cells, want)
	}
	if g := rep.GCUPS(); g <= 0 {
		t.Errorf("aggregate GCUPS = %v", g)
	}
}

// TestFleetValidation covers the constructor's error paths and the
// replica-addressing seam.
func TestFleetValidation(t *testing.T) {
	db := testDB(t, "Ensembl Dog Proteins", 0.0004, 5)
	if _, err := cluster.New(cluster.Config{}); err == nil {
		t.Error("empty database accepted")
	}
	if _, err := cluster.New(cluster.Config{DB: db, Shards: len(db) + 1}); err == nil {
		t.Error("more shards than sequences accepted")
	}
	fleet, err := cluster.New(cluster.Config{DB: db, Shards: 2, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.KillReplica(9, 0); err == nil {
		t.Error("kill of unknown shard accepted")
	}
	if err := fleet.KillReplica(0, 9); err == nil {
		t.Error("kill of unknown replica accepted")
	}
	if err := fleet.ReviveReplica(9, 0); err == nil {
		t.Error("revive of unknown shard accepted")
	}
	queries := hybridsw.GenerateQueries(db, 1, 50, 50, 6)
	if _, err := fleet.Search(nil, cluster.Params{}); err == nil {
		t.Error("empty query set accepted")
	}
	if _, err := fleet.Search(queries, cluster.Params{Policy: "bogus"}); err == nil {
		t.Error("bad policy accepted")
	}
	if _, err := fleet.Search(queries, cluster.Params{Mode: "bogus"}); err == nil {
		t.Error("bad mode accepted")
	}
	// A shard with every replica dead fails the job instead of hanging.
	if err := fleet.KillReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	if fleet.Ready() {
		t.Error("fleet with a dead shard reports ready")
	}
	if _, err := fleet.Search(queries, cluster.Params{}); err == nil {
		t.Error("search with a replica-less shard succeeded")
	}
}
