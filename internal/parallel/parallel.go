// Package parallel implements the three ways to parallelize Smith-Waterman
// that the paper's §II-B and Fig. 3 lay out, as real goroutine-parallel
// algorithms:
//
//   - fine-grained (Fig. 3a): ONE alignment split across processing
//     elements by column blocks; values flow as waves on anti-diagonals, so
//     each worker streams border columns to its right-hand neighbour;
//   - coarse-grained (Fig. 3b): one query, the database partitioned into
//     chunks that workers claim by self-scheduling;
//   - very coarse-grained (Fig. 3c): each worker compares a whole query
//     against the whole database — the granularity the paper's task
//     execution environment uses, including its load-imbalance hazard.
//
// All three produce scores bit-exact with the internal/sw reference; tests
// enforce it. The package is a faithful rendering of the paper's taxonomy;
// the serving path runs one Farrar engine per CPU core instead.
package parallel

import (
	"fmt"
	"sync"

	"repro/internal/farrar"
	"repro/internal/score"
	"repro/internal/seq"
)

const negInf = -(1 << 30)

// CoarseGrainedSearch compares one query to the database with the Fig. 3b
// scheme: the database is split into chunks of `chunk` sequences that
// `workers` goroutines claim by self-scheduling. Scores return in database
// order.
func CoarseGrainedSearch(q []byte, db []*seq.Sequence, s score.Scheme, workers, chunk int) ([]int, error) {
	if workers < 1 {
		workers = 1
	}
	if chunk < 1 {
		chunk = 16
	}
	scores := make([]int, len(db))
	type job struct{ lo, hi int }
	jobs := make(chan job)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			kern, err := farrar.NewKernel(q, s)
			if err != nil {
				errs[w] = err
				for range jobs { // drain so the feeder never blocks
				}
				return
			}
			for j := range jobs {
				for i := j.lo; i < j.hi; i++ {
					scores[i] = kern.Score(db[i].Residues)
				}
			}
		}(w)
	}
	for lo := 0; lo < len(db); lo += chunk {
		jobs <- job{lo, min(lo+chunk, len(db))}
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return scores, nil
}

// VeryCoarseGrainedSearch compares each query to the whole database with
// the Fig. 3c scheme: workers claim whole queries. As the paper notes, the
// work per task is large and heterogeneous, so this granularity "can easily
// lead to load imbalance" — which is exactly what its workload adjustment
// mechanism repairs at the cluster level.
func VeryCoarseGrainedSearch(queries []*seq.Sequence, db []*seq.Sequence, s score.Scheme, workers int) ([][]int, error) {
	if workers < 1 {
		workers = 1
	}
	out := make([][]int, len(queries))
	idx := make(chan int)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for qi := range idx {
				kern, err := farrar.NewKernel(queries[qi].Residues, s)
				if err != nil {
					errs[w] = fmt.Errorf("query %s: %w", queries[qi].ID, err)
					continue
				}
				scores := make([]int, len(db))
				for i, d := range db {
					scores[i] = kern.Score(d.Residues)
				}
				out[qi] = scores
			}
		}(w)
	}
	for qi := range queries {
		idx <- qi
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
