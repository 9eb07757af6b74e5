package master_test

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/master"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/prefilter"
	"repro/internal/sched"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/slave"
	"repro/internal/wire"
)

// plantedJob builds a database where every sequence contains each query
// verbatim, so every hit's alignment lies inside an admitted window and the
// filtered ranking must be byte-identical to the full scan's.
func plantedJob(seed int64, nseqs, seqLen, nqueries, qlen int) (db, queries []*seq.Sequence) {
	rng := rand.New(rand.NewSource(seed))
	const sigma = "ACDEFGHIKLMNPQRSTVWY"
	queries = make([]*seq.Sequence, nqueries)
	for i := range queries {
		res := make([]byte, qlen)
		for j := range res {
			res[j] = sigma[rng.Intn(len(sigma))]
		}
		queries[i] = seq.New("q"+string(rune('0'+i)), "", res)
	}
	db = make([]*seq.Sequence, nseqs)
	for i := range db {
		res := make([]byte, seqLen)
		for j := range res {
			res[j] = sigma[rng.Intn(len(sigma))]
		}
		for qi, q := range queries {
			at := (i*nqueries + qi) * qlen * 2 % (seqLen - qlen)
			copy(res[at:], q.Residues)
		}
		db[i] = seq.New("d"+string(rune('A'+i)), "", res)
	}
	return db, queries
}

func TestFilteredMatchesFullScanRanking(t *testing.T) {
	db, queries := plantedJob(91, 5, 800, 3, 30)
	scheme := score.DefaultProtein()

	run := func(filtered bool) ([]master.QueryResult, master.FilterStats) {
		m, err := master.New(master.Config{
			Queries:    queries,
			DBResidues: dbResidues(db),
			Policy:     &sched.PSS{},
			Filtered:   filtered,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		sse1, _ := slave.NewFarrarEngine("sse1", scheme, db, 0)
		sse2, _ := slave.NewFarrarEngine("sse2", scheme, db, 0)
		runLocal(t, m, []slave.Engine{sse1, sse2})
		if err := m.Wait(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		return m.Results(), m.FilterStats()
	}

	full, fullStats := run(false)
	filt, filtStats := run(true)

	if fullStats.RescoredCells != 0 || fullStats.Queries != 0 {
		t.Fatalf("full scan reported filter stats: %+v", fullStats)
	}
	if len(filt) != len(full) {
		t.Fatalf("filtered produced %d results, full %d", len(filt), len(full))
	}
	for i := range full {
		if filt[i].Query != full[i].Query {
			t.Fatalf("result %d: query %q vs %q", i, filt[i].Query, full[i].Query)
		}
		if len(filt[i].Hits) != len(full[i].Hits) {
			t.Fatalf("query %s: %d filtered hits vs %d full", full[i].Query, len(filt[i].Hits), len(full[i].Hits))
		}
		for j := range full[i].Hits {
			fh, gh := full[i].Hits[j], filt[i].Hits[j]
			if fh.SeqID != gh.SeqID || fh.Index != gh.Index || fh.Score != gh.Score {
				t.Fatalf("query %s hit %d: full {%s %d %d} vs filtered {%s %d %d}",
					full[i].Query, j, fh.SeqID, fh.Index, fh.Score, gh.SeqID, gh.Index, gh.Score)
			}
		}
	}

	// The selectivity acceptance: rescored cells strictly below full-scan
	// cells, with every stage accounted.
	if filtStats.Queries != len(queries) || filtStats.PrefilterDone != len(queries) || filtStats.RescoreDone != len(queries) {
		t.Fatalf("stage accounting: %+v", filtStats)
	}
	if filtStats.RescoredCells <= 0 || filtStats.RescoredCells >= filtStats.FullScanCells {
		t.Fatalf("rescored cells %d not strictly below full-scan cells %d", filtStats.RescoredCells, filtStats.FullScanCells)
	}
	if sel := filtStats.Selectivity(); sel <= 0 || sel >= 1 {
		t.Fatalf("selectivity %v not in (0,1)", sel)
	}
	if filtStats.CellsSaved() == 0 {
		t.Fatal("no cells saved")
	}
}

// TestFilteredCoreProtocol drives the two-stage protocol by hand: a
// capability-less slave must be left on standby, a capable slave runs the
// prefilter, and the rescore task materializes in the same dispatch step
// that accepted the windows.
func TestFilteredCoreProtocol(t *testing.T) {
	q := seq.New("q0", "", bytes.Repeat([]byte("ACDEFGHI"), 5))
	core, err := master.NewFilteredCore([]*seq.Sequence{q}, 1000, prefilter.Spec{}, sched.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)

	// SW-only slave (nil caps): sees a standby, never a prefilter task.
	legacy := core.Dispatch(wire.Envelope{Register: &wire.RegisterMsg{Name: "legacy"}}, now)
	la := core.Dispatch(wire.Envelope{Request: &wire.RequestMsg{Slave: legacy.RegisterAck.Slave}}, now)
	if la.Assign == nil || !la.Assign.Standby || len(la.Assign.Tasks) != 0 {
		t.Fatalf("legacy slave got %+v, want standby", la.Assign)
	}

	caps := []sched.TaskKind{sched.TaskSW, sched.TaskPrefilter, sched.TaskRescore}
	reg := core.Dispatch(wire.Envelope{Register: &wire.RegisterMsg{Name: "cpu", Caps: caps}}, now)
	id := reg.RegisterAck.Slave

	a := core.Dispatch(wire.Envelope{Request: &wire.RequestMsg{Slave: id}}, now)
	if a.Assign == nil || len(a.Assign.Tasks) != 1 {
		t.Fatalf("capable slave got %+v", a.Assign)
	}
	spec := a.Assign.Tasks[0]
	if spec.TaskKind != sched.TaskPrefilter || spec.Filter == nil {
		t.Fatalf("first task is %v (filter %v), want prefilter with spec", spec.TaskKind, spec.Filter)
	}
	if spec.Cells != 1000*sched.PrefilterEquivCells {
		t.Fatalf("prefilter task cells = %d, want %d", spec.Cells, 1000*sched.PrefilterEquivCells)
	}

	windows := []sched.Window{{Seq: 0, Start: 10, End: 90}}
	ack := core.Dispatch(wire.Envelope{Complete: &wire.CompleteMsg{
		Slave: id, Task: spec.ID, Windows: windows, Scanned: 1000, Candidates: 80,
	}}, now)
	if ack.CompleteAck == nil || !ack.CompleteAck.Accepted {
		t.Fatalf("prefilter completion not accepted: %+v", ack)
	}
	if ack.CompleteAck.Done {
		t.Fatal("job reported done with the rescore stage outstanding")
	}

	a2 := core.Dispatch(wire.Envelope{Request: &wire.RequestMsg{Slave: id}}, now)
	if a2.Assign == nil || len(a2.Assign.Tasks) != 1 {
		t.Fatalf("no rescore task after prefilter completion: %+v", a2.Assign)
	}
	rspec := a2.Assign.Tasks[0]
	if rspec.TaskKind != sched.TaskRescore || len(rspec.Windows) != 1 || rspec.Windows[0] != windows[0] {
		t.Fatalf("second task is %v windows %v", rspec.TaskKind, rspec.Windows)
	}
	if want := int64(q.Len()) * 80; rspec.Cells != want {
		t.Fatalf("rescore task cells = %d, want %d", rspec.Cells, want)
	}

	hits := []wire.Hit{{SeqID: "d0", Index: 0, Score: 42}}
	ack2 := core.Dispatch(wire.Envelope{Complete: &wire.CompleteMsg{Slave: id, Task: rspec.ID, Hits: hits}}, now)
	if ack2.CompleteAck == nil || !ack2.CompleteAck.Accepted || !ack2.CompleteAck.Done {
		t.Fatalf("rescore completion: %+v", ack2)
	}
	results := core.Results()
	if len(results) != 1 || results[0].Query != "q0" || len(results[0].Hits) != 1 || results[0].Hits[0].Score != 42 {
		t.Fatalf("results = %+v", results)
	}
	fs := core.FilterStats()
	if fs.PrefilterDone != 1 || fs.RescoreDone != 1 || fs.Windows != 1 || fs.ResiduesScanned != 1000 || fs.CandidateResidues != 80 {
		t.Fatalf("filter stats = %+v", fs)
	}
}

// TestFilteredJobWithMixedFleet: a GPU (SW-only) slave joins a filtered job
// alongside CPU slaves; the job must complete, with the GPU simply idle.
func TestFilteredJobWithMixedFleet(t *testing.T) {
	db, queries := plantedJob(17, 4, 500, 2, 24)
	scheme := score.DefaultProtein()
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Policy:     &sched.PSS{},
		Filtered:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cpu, _ := slave.NewFarrarEngine("cpu", scheme, db, 0)
	gpu, _ := slave.NewGPUEngine("gpu", scheme, db, 0)

	var wg sync.WaitGroup
	var cpuErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, cpuErr = slave.Run(wire.Local{H: m}, cpu, slave.Options{NotifyEvery: 10 * time.Millisecond, Poll: 2 * time.Millisecond})
	}()
	// The GPU slave polls standby until Done; run it too, it must exit
	// cleanly without ever being handed a prefilter or rescore task.
	var gpuErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, gpuErr = slave.Run(wire.Local{H: m}, gpu, slave.Options{NotifyEvery: 10 * time.Millisecond, Poll: 2 * time.Millisecond})
	}()
	wg.Wait()
	if cpuErr != nil || gpuErr != nil {
		t.Fatalf("cpu err %v, gpu err %v", cpuErr, gpuErr)
	}
	if err := m.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Results()); got != len(queries) {
		t.Fatalf("%d results for %d queries", got, len(queries))
	}
}

// TestFilteredStageProgress asserts the per-stage hook sees both stages
// reach completion.
func TestFilteredStageProgress(t *testing.T) {
	db, queries := plantedJob(29, 3, 400, 2, 20)
	var mu sync.Mutex
	last := map[string]int64{}
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Filtered:   true,
		StageProgress: func(stage string, done, total int64) {
			mu.Lock()
			defer mu.Unlock()
			if done > last[stage] {
				last[stage] = done
			}
			if total != int64(len(queries)) {
				t.Errorf("stage %s total %d, want %d", stage, total, len(queries))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cpu, _ := slave.NewFarrarEngine("cpu", score.DefaultProtein(), db, 0)
	runLocal(t, m, []slave.Engine{cpu})
	if err := m.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if last["prefilter"] != int64(len(queries)) || last["rescore"] != int64(len(queries)) {
		t.Fatalf("stage progress high-water marks: %v", last)
	}
}

// TestFilteredStageEvents: a filtered run's event log carries one "stage"
// line per completed stage per query, readable by the platform trace parser.
func TestFilteredStageEvents(t *testing.T) {
	db, queries := plantedJob(43, 3, 400, 2, 20)
	var buf bytes.Buffer
	m, err := master.New(master.Config{
		Queries:    queries,
		DBResidues: dbResidues(db),
		Filtered:   true,
		Events:     metrics.NewEventLog(&buf),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	cpu, _ := slave.NewFarrarEngine("cpu", score.DefaultProtein(), db, 0)
	runLocal(t, m, []slave.Engine{cpu})
	if err := m.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	events, err := platform.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byStage := map[string]int{}
	for _, e := range events {
		if e.Kind != metrics.EventStage {
			continue
		}
		byStage[e.Stage]++
		if e.PE != "cpu" {
			t.Errorf("stage event PE %q", e.PE)
		}
		if e.Stage == "prefilter" && (e.Selectivity <= 0 || e.Selectivity >= 1) {
			t.Errorf("prefilter event selectivity %v", e.Selectivity)
		}
	}
	if byStage["prefilter"] != len(queries) || byStage["rescore"] != len(queries) {
		t.Fatalf("stage events %v, want %d of each", byStage, len(queries))
	}
}
