package slave

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
	"repro/internal/wire"
)

func tinyDB(t *testing.T) []*seq.Sequence {
	t.Helper()
	p := dataset.Profile{Name: "tiny", NumSeqs: 25, MeanLen: 80, SigmaLn: 0.5, MinLen: 20, MaxLen: 300}
	return dataset.Generate(p, 101)
}

func TestFarrarEngineScoresMatchReference(t *testing.T) {
	db := tinyDB(t)
	eng, err := NewFarrarEngine("sse0", score.DefaultProtein(), db, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := dataset.Queries(db, 1, 60, 60, 7)[0]
	var progressCalls int
	hits, err := eng.Search(q, func(int64) { progressCalls++ }, make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != len(db) {
		t.Fatalf("%d hits", len(hits))
	}
	for i, h := range hits {
		want := sw.Score(q.Residues, db[i].Residues, score.DefaultProtein())
		if h.Score != want || h.SeqID != db[i].ID || h.Index != i {
			t.Fatalf("hit %d = %+v, want score %d", i, h, want)
		}
	}
	if progressCalls == 0 {
		t.Error("no progress callbacks")
	}
	if eng.DatabaseResidues() <= 0 || eng.Kind().String() != "CPU" || eng.Name() != "sse0" {
		t.Error("accessors wrong")
	}
}

func TestFarrarEngineCancel(t *testing.T) {
	db := tinyDB(t)
	eng, _ := NewFarrarEngine("sse0", score.DefaultProtein(), db, 0)
	q := dataset.Queries(db, 1, 50, 50, 8)[0]
	cancel := make(chan struct{})
	close(cancel)
	if _, err := eng.Search(q, nil, cancel); err != ErrCanceled {
		t.Errorf("err = %v, want ErrCanceled", err)
	}
}

func TestFarrarEngineValidation(t *testing.T) {
	if _, err := NewFarrarEngine("x", score.DefaultProtein(), nil, 0); err == nil {
		t.Error("empty db accepted")
	}
	if _, err := NewFarrarEngine("x", score.Scheme{}, tinyDB(t), 0); err == nil {
		t.Error("bad scheme accepted")
	}
}

func TestGPUEngineScoresMatchFarrar(t *testing.T) {
	db := tinyDB(t)
	gpu, err := NewGPUEngine("gpu0", score.DefaultProtein(), db, 0)
	if err != nil {
		t.Fatal(err)
	}
	sse, _ := NewFarrarEngine("sse0", score.DefaultProtein(), db, 0)
	q := dataset.Queries(db, 1, 90, 90, 9)[0]
	gh, err := gpu.Search(q, nil, make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	sh, err := sse.Search(q, nil, make(chan struct{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range gh {
		if gh[i].Score != sh[i].Score || gh[i].SeqID != sh[i].SeqID || gh[i].Index != sh[i].Index {
			t.Fatalf("hit %d: GPU %+v vs SSE %+v", i, gh[i], sh[i])
		}
	}
	if gpu.Kind().String() != "GPU" {
		t.Error("kind")
	}
}

// TestGPUEngineLaunchContract pins what the GPU wrapper keeps of a kernel
// launch: a single progress report of |q|×residues after the whole scan
// (where the SSE engine reports every ~4M cells), cancellation checked
// only once the scan is over, and no prefilter or rescore capability.
func TestGPUEngineLaunchContract(t *testing.T) {
	p := dataset.Profile{Name: "launch", NumSeqs: 200, MeanLen: 200, SigmaLn: 0.3, MinLen: 50, MaxLen: 600}
	db := dataset.Generate(p, 31)
	gpu, err := NewGPUEngine("gpu0", score.DefaultProtein(), db, 0)
	if err != nil {
		t.Fatal(err)
	}
	sse, _ := NewFarrarEngine("sse0", score.DefaultProtein(), db, 0)
	q := dataset.Queries(db, 1, 200, 200, 32)[0]

	var sseCalls int
	if _, err := sse.Search(q, func(int64) { sseCalls++ }, make(chan struct{})); err != nil {
		t.Fatal(err)
	}
	if sseCalls < 2 {
		t.Fatalf("test setup: the SSE engine reported progress %d times, want several", sseCalls)
	}
	var calls []int64
	if _, err := gpu.Search(q, func(c int64) { calls = append(calls, c) }, make(chan struct{})); err != nil {
		t.Fatal(err)
	}
	if want := int64(q.Len()) * gpu.DatabaseResidues(); len(calls) != 1 || calls[0] != want {
		t.Fatalf("progress calls %v, want exactly [%d]", calls, want)
	}

	cancel := make(chan struct{})
	close(cancel)
	progressed := false
	if hits, err := gpu.Search(q, func(int64) { progressed = true }, cancel); err != ErrCanceled || hits != nil {
		t.Fatalf("canceled search = (%d hits, %v), want ErrCanceled", len(hits), err)
	}
	if progressed {
		t.Error("a canceled search reported progress")
	}
	// The launch runs before cancellation is checked, so a query the
	// kernel rejects fails with the kernel's error, not ErrCanceled.
	if _, err := gpu.Search(seq.New("bad", "", []byte("AC1")), nil, cancel); err == nil || err == ErrCanceled {
		t.Errorf("invalid query under a closed cancel: err = %v, want the kernel's error", err)
	}

	if caps := EngineCaps(gpu); caps != nil {
		t.Errorf("EngineCaps(gpu) = %v, want nil", caps)
	}
}

func TestTopK(t *testing.T) {
	hits := []wire.Hit{
		{SeqID: "a", Index: 0, Score: 5},
		{SeqID: "b", Index: 1, Score: 9},
		{SeqID: "c", Index: 2, Score: 9},
		{SeqID: "d", Index: 3, Score: 1},
	}
	top := TopK(hits, 2)
	if len(top) != 2 || top[0].SeqID != "b" || top[1].SeqID != "c" {
		t.Errorf("TopK = %v", top)
	}
	if got := TopK(hits, 0); len(got) != 4 {
		t.Errorf("TopK(0) = %d hits, want all", len(got))
	}
	if got := TopK(hits, 99); len(got) != 4 {
		t.Errorf("TopK(99) = %d hits", len(got))
	}
	// The input must not be reordered.
	if hits[0].SeqID != "a" {
		t.Error("TopK mutated its input")
	}
}

func TestRandomizedEnginesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	p := dataset.Profile{Name: "r", NumSeqs: 12, MeanLen: 60, SigmaLn: 0.4, MinLen: 10, MaxLen: 150}
	for iter := 0; iter < 3; iter++ {
		db := dataset.Generate(p, rng.Int63())
		qs := dataset.Queries(db, 2, 40, 120, rng.Int63())
		gpu, _ := NewGPUEngine("g", score.DefaultProtein(), db, 0)
		sse, _ := NewFarrarEngine("s", score.DefaultProtein(), db, 0)
		for _, q := range qs {
			gh, _ := gpu.Search(q, nil, make(chan struct{}))
			sh, _ := sse.Search(q, nil, make(chan struct{}))
			for i := range gh {
				if gh[i].Score != sh[i].Score {
					t.Fatalf("engines disagree on %s vs %s", q.ID, db[i].ID)
				}
			}
		}
	}
}
