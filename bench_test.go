// Benchmarks regenerating the paper's evaluation artifacts (§V) that cost
// real work to build, plus kernel micro-benchmarks for the real compute
// path. Virtual-time experiments report their simulated seconds as custom
// metrics (sim_s); kernel benchmarks report real MCUPS. The deterministic
// outputs of Tables III-V and Fig. 6 are pinned as golden tables by the
// internal/experiments tests instead.
//
// Run: go test -bench=. -benchmem
package hybridsw_test

import (
	"math/rand"
	"testing"
	"time"

	hybridsw "repro"
	"repro/internal/assembly"
	"repro/internal/experiments"
	"repro/internal/farrar"
	"repro/internal/msa"
	"repro/internal/parallel"
	"repro/internal/score"
	"repro/internal/seq"
	"repro/internal/sw"
)

func BenchmarkTable2_Databases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Table2(); tab == nil {
			b.Fatal("no table")
		}
	}
}

func BenchmarkFig5_Walkthrough(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.With.Makespan.Seconds(), "with_s")
			b.ReportMetric(res.Without.Makespan.Seconds(), "without_s")
		}
	}
}

func BenchmarkFig7_Dedicated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Makespan.Seconds(), "sim_s")
		}
	}
}

func BenchmarkFig8_NonDedicated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Makespan.Seconds(), "sim_s")
		}
	}
}

func BenchmarkPolicyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PolicyAblation(true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOmegaAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.OmegaAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLatencyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LatencyAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- real compute-kernel benchmarks ------------------------------------

func randProtein(rng *rand.Rand, n int) []byte {
	const canon = "ACDEFGHIKLMNPQRSTVWY"
	out := make([]byte, n)
	for i := range out {
		out[i] = canon[rng.Intn(len(canon))]
	}
	return out
}

// reportMCUPS converts benchmark cell throughput to millions of cell
// updates per second.
func reportMCUPS(b *testing.B, cellsPerOp int64, elapsed time.Duration) {
	if elapsed <= 0 {
		return
	}
	mcups := float64(cellsPerOp) * float64(b.N) / elapsed.Seconds() / 1e6
	b.ReportMetric(mcups, "MCUPS")
}

// BenchmarkKernelFarrarSWAR8 measures the production 8-bit tier, the
// 64-bit SWAR kernel. The emulated-ISA oracle's speed is measured next to
// it by internal/farrar's BenchmarkScore{8,16}{SWAR,Emulated}.
func BenchmarkKernelFarrarSWAR8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := randProtein(rng, 128)
	d := randProtein(rng, 400)
	k, err := farrar.NewKernel(q, score.DefaultProtein())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, ok := k.ScoreSWAR8(d); !ok {
			b.Fatal("overflow")
		}
	}
	reportMCUPS(b, int64(len(q))*int64(len(d)), time.Since(start))
}

func BenchmarkKernelReferenceSW(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	q := randProtein(rng, 128)
	d := randProtein(rng, 400)
	s := score.DefaultProtein()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sw.Score(q, d, s)
	}
	reportMCUPS(b, int64(len(q))*int64(len(d)), time.Since(start))
}

func BenchmarkKernelTraceback(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	q := randProtein(rng, 200)
	d := randProtein(rng, 200)
	s := score.DefaultProtein()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Align(q, d, s)
	}
}

func BenchmarkKernelLinearSpace(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	q := randProtein(rng, 200)
	d := randProtein(rng, 200)
	s := score.DefaultProtein()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.AlignLinearSpace(q, d, s)
	}
}

func BenchmarkSearchEndToEnd(b *testing.B) {
	db, err := hybridsw.GenerateDatabase("Ensembl Dog Proteins", 0.0008, 9)
	if err != nil {
		b.Fatal(err)
	}
	queries := hybridsw.GenerateQueries(db, 3, 60, 200, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hybridsw.Search(queries, db, hybridsw.Platform{
			GPUs: 1, SSECores: 1, Policy: "PSS", Adjust: true, TopK: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelStrategies(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	q := randProtein(rng, 100)
	db := make([]*seq.Sequence, 48)
	for i := range db {
		db[i] = seq.New("s", "", randProtein(rng, 300))
	}
	s := score.DefaultProtein()
	b.Run("fine_grained_pair", func(b *testing.B) {
		d := db[0].Residues
		for i := 0; i < b.N; i++ {
			parallel.FineGrainedScore(q, d, s, 4, 64)
		}
	})
	b.Run("coarse_grained_db", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := parallel.CoarseGrainedSearch(q, db, s, 4, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("very_coarse_queries", func(b *testing.B) {
		queries := []*seq.Sequence{seq.New("q", "", q)}
		for i := 0; i < b.N; i++ {
			if _, err := parallel.VeryCoarseGrainedSearch(queries, db, s, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMSACenterStar(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	ancestor := randProtein(rng, 80)
	var seqs []*seq.Sequence
	for i := 0; i < 6; i++ {
		res := append([]byte{}, ancestor...)
		for k := 0; k < 6; k++ {
			res[rng.Intn(len(res))] = "ACDEFGHIKLMNPQRSTVWY"[rng.Intn(20)]
		}
		seqs = append(seqs, seq.New("m", "", res))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := msa.Align(seqs, score.DefaultProtein(), 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAssemblyGreedyOLC(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	genome := make([]byte, 800)
	for i := range genome {
		genome[i] = "ATGC"[rng.Intn(4)]
	}
	var reads []*seq.Sequence
	for start := 0; start+120 <= len(genome); start += 80 {
		reads = append(reads, seq.New("r", "", genome[start:start+120]))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assembly.Assemble(reads, assembly.Options{MinOverlap: 30, MinScore: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFutureWorkScenarios(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FutureWork(); err != nil {
			b.Fatal(err)
		}
	}
}
