package parallel

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
)

func randProtein(rng *rand.Rand, n int) []byte {
	const canon = "ACDEFGHIKLMNPQRSTVWY"
	out := make([]byte, n)
	for i := range out {
		out[i] = canon[rng.Intn(len(canon))]
	}
	return out
}

func TestFineGrainedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := score.DefaultProtein()
	for iter := 0; iter < 40; iter++ {
		q := randProtein(rng, 1+rng.Intn(150))
		d := randProtein(rng, 1+rng.Intn(150))
		want := sw.Score(q, d, s)
		for _, workers := range []int{1, 2, 3, 7} {
			for _, strip := range []int{1, 5, 64} {
				if got := FineGrainedScore(q, d, s, workers, strip); got != want {
					t.Fatalf("iter %d workers=%d strip=%d: %d != %d (m=%d n=%d)",
						iter, workers, strip, got, want, len(q), len(d))
				}
			}
		}
	}
}

func TestFineGrainedDegenerate(t *testing.T) {
	s := score.DefaultProtein()
	if FineGrainedScore(nil, []byte("ACD"), s, 4, 8) != 0 {
		t.Error("empty query")
	}
	if FineGrainedScore([]byte("ACD"), nil, s, 4, 8) != 0 {
		t.Error("empty target")
	}
	// More workers than columns must clamp, not deadlock.
	q := []byte("AC")
	d := []byte("AC")
	if got := FineGrainedScore(q, d, s, 16, 4); got != sw.Score(q, d, s) {
		t.Errorf("tiny matrix: %d", got)
	}
	// Zero/negative knobs fall back to sane defaults.
	if got := FineGrainedScore(q, d, s, 0, 0); got != sw.Score(q, d, s) {
		t.Errorf("defaulted knobs: %d", got)
	}
}

func TestFineGrainedGapAcrossBlocks(t *testing.T) {
	// An alignment whose optimal path carries a long horizontal gap across
	// block boundaries exercises the E handoff.
	s := score.Scheme{Matrix: score.BLOSUM62, Gap: score.AffineGap(2, 1)}
	q := []byte("WWWWWW")
	d := []byte("WWWAAAAAAAAAAAAAAAAAAAAWWW")
	want := sw.Score(q, d, s)
	for _, workers := range []int{2, 4, 8} {
		if got := FineGrainedScore(q, d, s, workers, 2); got != want {
			t.Fatalf("workers=%d: %d != %d", workers, got, want)
		}
	}
}

func TestCoarseGrainedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := dataset.Profile{Name: "t", NumSeqs: 60, MeanLen: 70, SigmaLn: 0.5, MinLen: 10, MaxLen: 200}
	db := dataset.Generate(p, 3)
	q := dataset.Queries(db, 1, 80, 80, 4)[0]
	for _, workers := range []int{1, 3, 8} {
		for _, chunk := range []int{1, 7, 100} {
			got, err := CoarseGrainedSearch(q.Residues, db, score.DefaultProtein(), workers, chunk)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range db {
				if want := sw.Score(q.Residues, d.Residues, score.DefaultProtein()); got[i] != want {
					t.Fatalf("workers=%d chunk=%d seq %d: %d != %d", workers, chunk, i, got[i], want)
				}
			}
		}
	}
	_ = rng
}

func TestCoarseGrainedBadQuery(t *testing.T) {
	db := []*seq.Sequence{seq.New("a", "", []byte("ACD"))}
	if _, err := CoarseGrainedSearch([]byte("AC1"), db, score.DefaultProtein(), 2, 4); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestVeryCoarseGrainedMatchesReference(t *testing.T) {
	p := dataset.Profile{Name: "t", NumSeqs: 15, MeanLen: 50, SigmaLn: 0.4, MinLen: 10, MaxLen: 120}
	db := dataset.Generate(p, 5)
	queries := dataset.Queries(db, 5, 30, 90, 6)
	got, err := VeryCoarseGrainedSearch(queries, db, score.DefaultProtein(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(queries) {
		t.Fatalf("%d result rows", len(got))
	}
	for qi, q := range queries {
		for i, d := range db {
			if want := sw.Score(q.Residues, d.Residues, score.DefaultProtein()); got[qi][i] != want {
				t.Fatalf("query %d seq %d: %d != %d", qi, i, got[qi][i], want)
			}
		}
	}
}

func TestVeryCoarseGrainedBadQuery(t *testing.T) {
	db := []*seq.Sequence{seq.New("a", "", []byte("ACD"))}
	bad := []*seq.Sequence{seq.New("q", "", []byte("A?C"))}
	if _, err := VeryCoarseGrainedSearch(bad, db, score.DefaultProtein(), 2); err == nil {
		t.Error("invalid query accepted")
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	// The taxonomy's point: three decompositions, one answer.
	p := dataset.Profile{Name: "t", NumSeqs: 20, MeanLen: 60, SigmaLn: 0.4, MinLen: 20, MaxLen: 120}
	db := dataset.Generate(p, 7)
	q := dataset.Queries(db, 1, 70, 70, 8)[0]
	s := score.DefaultProtein()

	coarse, err := CoarseGrainedSearch(q.Residues, db, s, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	very, err := VeryCoarseGrainedSearch([]*seq.Sequence{q}, db, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range db {
		fine := FineGrainedScore(q.Residues, d.Residues, s, 3, 16)
		if coarse[i] != fine || very[0][i] != fine {
			t.Fatalf("seq %d: fine=%d coarse=%d very=%d", i, fine, coarse[i], very[0][i])
		}
	}
}
