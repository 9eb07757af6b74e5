package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	hybridsw "repro"
	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/seq"
)

// dbProfile is the Table II database every workload scales down.
const dbProfile = "Ensembl Dog Proteins"

// topK is the hits-per-query every request asks for.
const topK = 10

// Request classes: primary requests set latency_p50_ms/latency_p99_ms; bulk
// requests are mixed-cluster's asynchronous background jobs.
const (
	classPrimary = "primary"
	classBulk    = "bulk"
)

// workload is one traffic mix against one server configuration. Each field
// mirrors a swserve flag; the comment on each workload names the flags.
type workload struct {
	// dbScale scales dbProfile (hybridsw.GenerateDatabase).
	dbScale float64
	// cluster selects -backend=cluster -shards 4 -replicas 2; otherwise the
	// local backend with swserve's defaults (-gpus 1 -sse 2 -policy PSS
	// -adjust).
	cluster      bool
	tenantPolicy string
	tenants      map[string]jobs.TenantConfig
	// traffic builds the seeded request stream for a run of the given
	// length.
	traffic func(db []*seq.Sequence, seed int64, seconds float64) *traffic
}

// workloads are the benchmark's traffic mixes, by name.
var workloads = map[string]workload{
	// swserve -db dog0.0008.fasta: per-request fixed cost dominates.
	"tiny-local": {dbScale: 0.0008, traffic: tinyTraffic},
	// swserve -db dog0.01.fasta: kernel-bound full scans.
	"batch-local": {dbScale: 0.01, traffic: batchTraffic},
	// swserve -db dog0.01.fasta -backend=cluster -shards 4 -replicas 2
	//   -tenant-policy drf -tenants interactive:2:0,bulk:1:0
	"mixed-cluster": {
		dbScale:      0.01,
		cluster:      true,
		tenantPolicy: "drf",
		tenants: map[string]jobs.TenantConfig{
			"interactive": {Weight: 2},
			"bulk":        {Weight: 1},
		},
		traffic: mixedTraffic,
	},
}

// Arrival rates. mixed-cluster runs at about two-thirds of the capacity
// measured for it (see README.md).
const (
	tinyRate        = 100.0 // tiny-local requests per second
	interactiveRate = 12.0  // mixed-cluster interactive requests per second
	bulkRate        = 1.0   // mixed-cluster bulk jobs per second
	bulkPoll        = 250 * time.Millisecond
	batchClients    = 2
)

// request is one HTTP search submission and, once sent, its outcome.
type request struct {
	class   string
	async   bool          // POST /jobs and poll, instead of POST /search
	due     time.Duration // open loop: offset from the phase start
	tenant  string
	mode    string // "" (full scan) or "filtered"
	queries []*seq.Sequence
	body    []byte
	cells   int64 // search space: query residues × database residues

	// Outcome, written by the one worker that sends the request.
	dueAt, sent, done time.Time
	late              time.Duration
	err               error // transport error, non-2xx answer or failed check
	wrong             bool  // the answer failed a correctness check
	resp              *httpapi.SearchResponse
	jobID             string
	finished          time.Time // async: the job record's finished stamp
}

// ok reports whether the request was answered and passed its checks.
func (r *request) ok() bool { return !r.sent.IsZero() && r.err == nil && r.resp != nil }

// traffic is a workload's request stream.
type traffic struct {
	reqs []*request // open loop: ordered by due; closed loop: issue order
	// clients > 0 makes a closed loop with that many clients; 0 is an
	// open loop sending each request when it is due.
	clients int
	// poll is the open loop's period for polling outstanding async jobs.
	poll time.Duration
}

// newRequest names the queries id, id.1, id.2, ... so every request body is
// unique, and encodes the POST /search payload.
func newRequest(class, id string, qs []*seq.Sequence, mode, tenant string, dbResidues int64) *request {
	r := &request{class: class, mode: mode, tenant: tenant}
	var fa strings.Builder
	for i, q := range qs {
		name := id
		if len(qs) > 1 {
			name = fmt.Sprintf("%s.%d", id, i)
		}
		r.queries = append(r.queries, seq.New(name, "", q.Residues))
		fmt.Fprintf(&fa, ">%s\n%s\n", name, q.Residues)
		r.cells += int64(q.Len()) * dbResidues
	}
	body, err := json.Marshal(httpapi.SearchRequest{
		QueriesFasta: fa.String(), TopK: topK, Mode: mode, Tenant: tenant,
	})
	if err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	r.body = body
	return r
}

// database draws a workload's database: Dog-profile sequences from
// hybridsw.GenerateDatabase, taken in order until they hold the profile's
// expected residue total at scale, the last one cut to fit. Every seed thus
// scans the same search space; an untrimmed 20-sequence draw varies by
// about a fifth in size from seed to seed.
func database(scale float64, seed int64) ([]*seq.Sequence, error) {
	p, err := dataset.ProfileByName(dbProfile)
	if err != nil {
		return nil, err
	}
	target := p.Scale(scale).Residues()
	pool, err := hybridsw.GenerateDatabase(dbProfile, 2*scale, seed)
	if err != nil {
		return nil, err
	}
	var db []*seq.Sequence
	var n int64
	for _, d := range pool {
		if n >= target {
			break
		}
		if left := target - n; int64(d.Len()) > left {
			d = seq.New(d.ID, d.Description, d.Residues[:left])
		}
		db = append(db, d)
		n += int64(d.Len())
	}
	return db, nil
}

// batches draws n batches of size queries with lengths over [lo, hi],
// stratified: the lengths are cut into size bands and every batch takes one
// query from each band, in a seeded order. Each batch thus holds about the
// same residues, and a run's first batches hold the same length mix as its
// last.
func batches(db []*seq.Sequence, n, size, lo, hi int, seed int64) [][]*seq.Sequence {
	qs := hybridsw.GenerateQueries(db, n*size, lo, hi, seed)
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].Len() < qs[j].Len() })
	rng := rand.New(rand.NewSource(seed))
	out := make([][]*seq.Sequence, n)
	for band := 0; band < size; band++ {
		for i, k := range rng.Perm(n) {
			out[i] = append(out[i], qs[band*n+k])
		}
	}
	return out
}

func residues(db []*seq.Sequence) int64 {
	var n int64
	for _, d := range db {
		n += int64(d.Len())
	}
	return n
}

func at(i int, offset, rate float64) time.Duration {
	return time.Duration((float64(i) + offset) / rate * float64(time.Second))
}

// tinyTraffic is an open loop of single 20-30-residue queries.
func tinyTraffic(db []*seq.Sequence, seed int64, seconds float64) *traffic {
	n := int(tinyRate * seconds)
	res := residues(db)
	qs := hybridsw.GenerateQueries(db, n, 20, 30, seed+1)
	// Shuffled, so that consecutive requests do not grow steadily longer.
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	t := &traffic{}
	for i, q := range qs {
		r := newRequest(classPrimary, fmt.Sprintf("t%05d", i), []*seq.Sequence{q}, "", "", res)
		r.due = at(i, 0, tinyRate)
		t.reqs = append(t.reqs, r)
	}
	return t
}

// batchTraffic is a closed loop of 8-query full-scan batches of 100-500
// residues. It draws more batches than two clients can finish in the run.
func batchTraffic(db []*seq.Sequence, seed int64, seconds float64) *traffic {
	const perBatch = 8
	n := int(seconds*2) + 8
	res := residues(db)
	t := &traffic{clients: batchClients}
	for i, qs := range batches(db, n, perBatch, 100, 500, seed+1) {
		t.reqs = append(t.reqs, newRequest(classPrimary, fmt.Sprintf("b%04d", i), qs, "", "", res))
	}
	return t
}

// mixedTraffic is two tenants' open loops merged: interactive synchronous
// single queries and bulk asynchronous 4-query full-scan batches. The
// interactive stream runs in blocks of four: two filtered queries and one
// full scan in a seeded order, then an exact repeat of a seeded choice among
// the full scans sent so far. Exactly half the interactive requests are
// filtered and a quarter are repeats, for every seed; filtered and full
// queries are dealt from the same length-sorted draw, so both modes span
// the same lengths.
func mixedTraffic(db []*seq.Sequence, seed int64, seconds float64) *traffic {
	res := residues(db)
	t := &traffic{poll: bulkPoll}
	rng := rand.New(rand.NewSource(seed + 3))

	blocks := int(interactiveRate * seconds / 4)
	qs := hybridsw.GenerateQueries(db, 3*blocks, 50, 150, seed+1)
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].Len() < qs[j].Len() })
	var filtered, full []*request
	for i, q := range qs {
		if i%3 == 2 {
			full = append(full, newRequest(classPrimary, fmt.Sprintf("i%05d", i), []*seq.Sequence{q}, "", "interactive", res))
		} else {
			filtered = append(filtered, newRequest(classPrimary, fmt.Sprintf("i%05d", i), []*seq.Sequence{q}, "filtered", "interactive", res))
		}
	}
	rng.Shuffle(len(filtered), func(i, j int) { filtered[i], filtered[j] = filtered[j], filtered[i] })
	rng.Shuffle(len(full), func(i, j int) { full[i], full[j] = full[j], full[i] })
	for b := 0; b < blocks; b++ {
		block := []*request{filtered[2*b], filtered[2*b+1], full[b]}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		src := full[rng.Intn(b+1)]
		block = append(block, &request{class: src.class, tenant: src.tenant, mode: src.mode,
			queries: src.queries, body: src.body, cells: src.cells})
		for k, r := range block {
			r.due = at(4*b+k, 0, interactiveRate)
			t.reqs = append(t.reqs, r)
		}
	}

	const perBulk = 4
	nb := int(bulkRate * seconds)
	for i, qs := range batches(db, nb, perBulk, 200, 500, seed+4) {
		r := newRequest(classBulk, fmt.Sprintf("k%04d", i), qs, "", "bulk", res)
		r.async = true
		r.due = at(i, 0.5, bulkRate)
		t.reqs = append(t.reqs, r)
	}
	sort.SliceStable(t.reqs, func(i, j int) bool { return t.reqs[i].due < t.reqs[j].due })
	return t
}
