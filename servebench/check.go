package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	hybridsw "repro"
	"repro/internal/httpapi"
	"repro/internal/seq"
	"repro/internal/wire"
)

// checker verifies answers against the database the benchmark generated.
type checker struct {
	db     []*seq.Sequence
	scheme hybridsw.Scheme
	index  map[string]int // database sequence ID -> position
}

func newChecker(db []*seq.Sequence) *checker {
	c := &checker{db: db, scheme: hybridsw.DefaultScheme(), index: make(map[string]int, len(db))}
	for i, d := range db {
		c.index[d.ID] = i
	}
	return c
}

// answer is the cheap check every answer gets inside the timed phase: one
// result per query in request order, hits naming database sequences at
// most once, ordered by wire.HitLess, and a full top-k for a full scan.
func (c *checker) answer(r *request, resp *httpapi.SearchResponse) error {
	if len(resp.Results) != len(r.queries) {
		return fmt.Errorf("%d results for %d queries", len(resp.Results), len(r.queries))
	}
	if r.mode == "filtered" && resp.Filter == nil {
		return fmt.Errorf("filtered answer without a filter report")
	}
	want := min(topK, len(c.db))
	for i, res := range resp.Results {
		q := r.queries[i]
		if res.Query != q.ID {
			return fmt.Errorf("result %d is for query %q, want %q", i, res.Query, q.ID)
		}
		if r.mode != "filtered" && len(res.Hits) != want {
			return fmt.Errorf("query %s: %d hits, want %d", q.ID, len(res.Hits), want)
		}
		if len(res.Hits) > want {
			return fmt.Errorf("query %s: %d hits exceed top_k %d", q.ID, len(res.Hits), want)
		}
		hits, err := c.wireHits(res.Hits)
		if err != nil {
			return fmt.Errorf("query %s: %v", q.ID, err)
		}
		seen := map[int]bool{}
		for k, h := range hits {
			if seen[h.Index] {
				return fmt.Errorf("query %s: sequence %s listed twice", q.ID, h.SeqID)
			}
			seen[h.Index] = true
			if k > 0 && !wire.HitLess(hits[k-1], h) {
				return fmt.Errorf("query %s: hits %d and %d out of order", q.ID, k-1, k)
			}
		}
	}
	return nil
}

// wireHits maps API hits back to database positions.
func (c *checker) wireHits(hs []httpapi.SearchHit) ([]wire.Hit, error) {
	out := make([]wire.Hit, len(hs))
	for i, h := range hs {
		idx, ok := c.index[h.SeqID]
		if !ok {
			return nil, fmt.Errorf("hit names unknown sequence %q", h.SeqID)
		}
		out[i] = wire.Hit{SeqID: h.SeqID, Index: idx, Score: h.Score}
	}
	return out, nil
}

// sample is one answered query picked for the brute-force oracle.
type sample struct {
	r *request
	q int // index into r.queries and r.resp.Results
}

// oracleResult is what the brute-force check found.
type oracleResult struct {
	checked    int // queries compared
	mismatches int // queries whose answer disagreed with the reference
	// Filtered answers: reference top-k hits found, and returned with the
	// reference score.
	refHits, recalled int
	firstErr          error
}

// recall is the share of reference top-k hits that filtered answers
// returned; 1 when no filtered answer was checked.
func (o oracleResult) recall() float64 {
	if o.refHits == 0 {
		return 1
	}
	return float64(o.recalled) / float64(o.refHits)
}

// pickSamples draws, per request class and mode, answered queries in a
// seeded order until that group's share of budget search-space cells is
// spent (always at least one query per group).
func pickSamples(reqs []*request, seed int64, budget int64, dbResidues int64) []sample {
	groups := map[string][]sample{}
	var names []string
	for _, r := range reqs {
		if !r.ok() {
			continue
		}
		g := r.class + "/" + r.mode
		if groups[g] == nil {
			names = append(names, g)
		}
		for q := range r.queries {
			groups[g] = append(groups[g], sample{r: r, q: q})
		}
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	var out []sample
	for _, g := range names {
		ss := groups[g]
		rng.Shuffle(len(ss), func(i, j int) { ss[i], ss[j] = ss[j], ss[i] })
		var spent int64
		for _, s := range ss {
			if spent >= budget/int64(len(names)) {
				break
			}
			out = append(out, s)
			spent += int64(s.r.queries[s.q].Len()) * dbResidues
		}
	}
	return out
}

// oracle compares the sampled answers with brute-force hybridsw.Score over
// every database sequence, on workers goroutines. A full scan must return
// exactly the reference top-k under wire.HitLess. A filtered answer must
// name each sequence with a score no higher than its reference score.
func (c *checker) oracle(samples []sample, workers int) oracleResult {
	type verdict struct {
		err               error
		refHits, recalled int
	}
	verdicts := make([]verdict, len(samples))
	var next atomic.Int64
	parallel(workers, func() {
		for {
			k := int(next.Add(1)) - 1
			if k >= len(samples) {
				return
			}
			v := &verdicts[k]
			v.refHits, v.recalled, v.err = c.verify(samples[k])
		}
	})
	var out oracleResult
	for _, v := range verdicts {
		out.checked++
		out.refHits += v.refHits
		out.recalled += v.recalled
		if v.err != nil {
			out.mismatches++
			if out.firstErr == nil {
				out.firstErr = v.err
			}
		}
	}
	return out
}

// verify checks one sampled query against the reference. For filtered
// answers it also counts the reference top-k hits and those returned.
func (c *checker) verify(s sample) (refHits, recalled int, err error) {
	q := s.r.queries[s.q]
	ref := make([]wire.Hit, len(c.db))
	for i, d := range c.db {
		ref[i] = wire.Hit{SeqID: d.ID, Index: i, Score: hybridsw.Score(q.Residues, d.Residues, c.scheme)}
	}
	byIndex := make([]int, len(ref))
	for i, h := range ref {
		byIndex[i] = h.Score
	}
	wire.SortHits(ref)
	top := ref[:min(topK, len(ref))]
	got, err := c.wireHits(s.r.resp.Results[s.q].Hits)
	if err != nil {
		return 0, 0, err
	}
	if s.r.mode != "filtered" {
		if len(got) != len(top) {
			return 0, 0, fmt.Errorf("query %s: %d hits, reference has %d", q.ID, len(got), len(top))
		}
		for k := range top {
			if got[k].Index != top[k].Index || got[k].Score != top[k].Score {
				return 0, 0, fmt.Errorf("query %s: hit %d is %s/%d, reference %s/%d",
					q.ID, k, got[k].SeqID, got[k].Score, top[k].SeqID, top[k].Score)
			}
		}
		return 0, 0, nil
	}
	returned := map[int]int{}
	for _, h := range got {
		if h.Score > byIndex[h.Index] {
			return 0, 0, fmt.Errorf("query %s: filtered score %d for %s exceeds the reference %d",
				q.ID, h.Score, h.SeqID, byIndex[h.Index])
		}
		returned[h.Index] = h.Score
	}
	for _, h := range top {
		refHits++
		if score, ok := returned[h.Index]; ok && score == h.Score {
			recalled++
		}
	}
	return refHits, recalled, nil
}
