package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	hybridsw "repro"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/seq"
	"repro/internal/slave"
)

// regSnap is a parsed copy of a metrics registry's JSON view
// (Registry.WriteJSON, the document GET /varz serves).
type regSnap map[string]struct {
	Metrics []struct {
		Labels map[string]string `json:"labels"`
		Value  *float64          `json:"value"`
		Count  *uint64           `json:"count"`
		Sum    *float64          `json:"sum"`
	} `json:"metrics"`
}

func snapRegistry(reg *metrics.Registry) (regSnap, error) {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var s regSnap
	return s, json.Unmarshal(buf.Bytes(), &s)
}

// get sums the children of family name whose labels match the given
// name/value pairs: their values, or for a histogram its count and sum.
func (s regSnap) get(name string, labels ...string) (value, count, sum float64) {
	for _, m := range s[name].Metrics {
		match := true
		for i := 0; i+1 < len(labels); i += 2 {
			match = match && m.Labels[labels[i]] == labels[i+1]
		}
		if !match {
			continue
		}
		if m.Value != nil {
			value += *m.Value
		}
		if m.Count != nil {
			count += float64(*m.Count)
		}
		if m.Sum != nil {
			sum += *m.Sum
		}
	}
	return value, count, sum
}

// regDelta is the change of the registry across a phase.
type regDelta struct{ before, after regSnap }

func (d regDelta) value(name string, labels ...string) float64 {
	a, _, _ := d.after.get(name, labels...)
	b, _, _ := d.before.get(name, labels...)
	return a - b
}

// meanMS is the mean observation of a seconds histogram over the phase, in
// milliseconds; 0 when nothing was observed.
func (d regDelta) meanMS(name string, labels ...string) float64 {
	_, ac, as := d.after.get(name, labels...)
	_, bc, bs := d.before.get(name, labels...)
	if ac == bc {
		return 0
	}
	return (as - bs) / (ac - bc) * 1e3
}

// sumOf is the sum of a histogram's observations over the phase.
func (d regDelta) sumOf(name string) float64 {
	_, _, as := d.after.get(name)
	_, _, bs := d.before.get(name)
	return as - bs
}

// rtSnap is the Go runtime's allocation and GC-pause totals
// (runtime/metrics) at one instant.
type rtSnap struct{ allocBytes, pauseSec float64 }

func readRuntime() rtSnap {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/sched/pauses/total/gc:seconds"}}
	rtmetrics.Read(s)
	var out rtSnap
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		out.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64Histogram {
		// The runtime keeps pause counts per bucket, not their sum: weight
		// each bucket by its midpoint (its finite edge for the open ends).
		h := s[1].Value.Float64Histogram()
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			out.pauseSec += float64(n) * (lo + hi) / 2
		}
	}
	return out
}

// engineLoad is one engine's share of the local backend's work, from the
// master event log: busy time over exec windows and tasks won.
type engineLoad struct {
	busySec float64
	won     int
}

// syncBuffer is an io.Writer safe for the event log's concurrent masters.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// engineLoads folds the event log's exec and summary lines per engine.
func engineLoads(b *syncBuffer) (map[string]engineLoad, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := map[string]engineLoad{}
	sc := bufio.NewScanner(bytes.NewReader(b.buf.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var e metrics.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, err
		}
		if e.PE == "" {
			continue
		}
		l := out[e.PE]
		switch e.Kind {
		case metrics.EventExec:
			l.busySec += e.EndSec - e.TimeSec
		case metrics.EventSummary:
			l.won += e.TasksWon
		}
		out[e.PE] = l
	}
	return out, sc.Err()
}

// isolatedGCUPS times direct slave.NewFarrarEngine(...).Search calls on
// the workload's queries, one core, for about budget.
func isolatedGCUPS(db []*seq.Sequence, qs []*seq.Sequence, budget time.Duration) (float64, error) {
	eng, err := slave.NewFarrarEngine("isolated", hybridsw.DefaultScheme(), db, 0)
	if err != nil {
		return 0, err
	}
	res := residues(db)
	var cells int64
	start := time.Now()
	for i := 0; time.Since(start) < budget || i == 0; i++ {
		q := qs[i%len(qs)]
		if _, err := eng.Search(q, nil, nil); err != nil {
			return 0, err
		}
		cells += int64(q.Len()) * res
	}
	return float64(cells) / time.Since(start).Seconds() / 1e9, nil
}

// span is one timed step of one request, as the benchmark sees it from
// outside the server. Spans of a request share Trace; Parent 0 is the root.
type span struct {
	Trace  int     `json:"trace"`
	ID     int     `json:"span"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // from the phase start
	End    float64 `json:"end_ms"`
}

// tracedRun is the traced phase plus what was read around it.
type tracedRun struct {
	p        *phase
	records  []jobs.Job
	reg      regDelta
	rt       [2]rtSnap
	engines  int
	loads    map[string]engineLoad // local backend only
	isolated float64
}

// execution pairs a request with the job record that executed it.
type execution struct {
	r   *request
	job jobs.Job
}

// match finds, for each answered request, the job record that served it:
// the record of the request's content created while the request was in
// flight. A request coalesced into an earlier record has none of its own
// and is left out. Async requests carry their record's ID.
func (t *tracedRun) match() []execution {
	byID := map[string]jobs.Job{}
	byContent := map[string][]jobs.Job{}
	for _, j := range t.records {
		byID[j.ID] = j
		k := contentKey(j.Request.QueriesFasta, j.Request.Mode)
		byContent[k] = append(byContent[k], j)
	}
	var out []execution
	for _, r := range t.p.reqs {
		if !r.ok() {
			continue
		}
		if r.async {
			if j, ok := byID[r.jobID]; ok {
				out = append(out, execution{r, j})
			}
			continue
		}
		for _, j := range byContent[contentKey(">"+r.queries[0].ID+"\n", r.mode)] {
			if !j.Created.Before(r.sent) && !j.Created.After(r.done) {
				out = append(out, execution{r, j})
				break
			}
		}
	}
	return out
}

// contentKey identifies a request by its first query's FASTA header line
// and mode; query IDs are unique to a request body.
func contentKey(fa, mode string) string {
	line, _, _ := strings.Cut(fa, "\n")
	return line + "|" + mode
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layers computes the per-layer metrics of a traced phase.
func (t *tracedRun) layers() map[string]float64 {
	p, d := t.p, t.reg
	m := map[string]float64{}

	var late []float64
	for _, r := range p.reqs {
		late = append(late, ms(r.late))
	}
	m["loadgen.late_p99_ms"], _ = tail(late, 0.99)
	m["loadgen.sent"] = float64(len(p.reqs))

	var self, overhead, waits, runs []float64
	var searched int64
	var filt struct {
		n                       int
		scanned, windows, saved int64
		selectivity             float64
	}
	for _, e := range t.match() {
		r, j := e.r, e.job
		if !r.async {
			self = append(self, ms(r.done.Sub(r.sent)-j.Finished.Sub(j.Created)))
		}
		if j.CacheHit {
			continue
		}
		waits = append(waits, ms(j.Started.Sub(j.Created)))
		runs = append(runs, ms(j.Finished.Sub(j.Started)))
		overhead = append(overhead, ms(j.Finished.Sub(j.Started))-r.resp.Elapsed*1e3)
		searched += r.cells
		if f := r.resp.Filter; f != nil {
			filt.n++
			filt.scanned += f.ResiduesScanned
			filt.windows += int64(f.Windows)
			filt.saved += f.CellsSaved
			filt.selectivity += f.Selectivity
		}
	}
	m["httpapi.self_ms_mean"] = mean(self)
	m["jobs.wait_ms_p50"] = median(waits)
	m["jobs.wait_ms_p99"], _ = tail(waits, 0.99)
	m["jobs.run_ms_mean"] = mean(runs)
	hits, misses := d.value("jobs_cache_hits_total"), d.value("jobs_cache_misses_total")
	m["jobs.cache_hit_ratio"] = 0
	if hits+misses > 0 {
		m["jobs.cache_hit_ratio"] = hits / (hits + misses)
	}
	m["jobs.coalesced"] = d.value("jobs_coalesced_total")
	m["jobs.rejected"] = d.value("jobs_rejected_total")
	for _, reason := range []string{"queue_full", "tenant_quota"} {
		m["jobs.rejected."+reason] = d.value("jobs_rejected_total", "reason", reason)
	}
	m["jobs.records_retained"] = float64(len(t.records))
	m["hybridsw.overhead_ms_mean"] = mean(overhead)

	for _, kind := range []string{"Register", "Request", "Progress", "Complete"} {
		lk := strings.ToLower(kind)
		m["wire.call_ms_mean."+lk] = d.meanMS("wire_call_seconds", "kind", kind)
		m["master.messages."+lk] = d.value("master_messages_total", "kind", kind)
	}
	m["sched.tasks_replicated"] = d.value("sched_tasks_replicated_total")
	computed := d.value("slave_cells_computed_total")
	m["sched.useful_cell_ratio"] = 0
	if computed > 0 {
		m["sched.useful_cell_ratio"] = float64(searched) / computed
	}
	busy := d.sumOf("slave_task_seconds")
	m["slave.busy_s"] = busy
	m["slave.busy_ratio"] = busy / (p.wall().Seconds() * float64(t.engines))
	for _, pe := range []string{"GPU1", "SSE1", "SSE2"} {
		l := t.loads[pe]
		m["engine."+strings.ToLower(pe)+".busy_s"] = l.busySec
		m["engine."+strings.ToLower(pe)+".won"] = float64(l.won)
	}

	m["farrar.isolated_gcups"] = t.isolated
	m["farrar.cells"] = computed
	for _, tier := range []string{"8bit", "16bit", "scalar"} {
		m["farrar.fallback."+tier] = d.value("farrar_fallback_total", "tier", tier)
	}

	m["prefilter.residues_scanned"] = float64(filt.scanned)
	m["prefilter.windows"] = float64(filt.windows)
	m["prefilter.cells_saved"] = float64(filt.saved)
	m["prefilter.selectivity_mean"] = 0
	if filt.n > 0 {
		m["prefilter.selectivity_mean"] = filt.selectivity / float64(filt.n)
	}

	m["cluster.shard_scan_ms_mean"] = d.meanMS("cluster_shard_scan_seconds")
	m["cluster.shard_scans"] = d.value("cluster_shard_scans_total")
	m["cluster.failovers"] = d.value("cluster_failovers_total")

	m["runtime.alloc_mb_per_req"] = (t.rt[1].allocBytes - t.rt[0].allocBytes) / (1 << 20) / float64(max(1, len(p.reqs)))
	m["runtime.gc_pause_ms"] = (t.rt[1].pauseSec - t.rt[0].pauseSec) * 1e3
	return m
}

// spans lays each request out as spans: the request from due to answer, its
// wait for a connection, the HTTP exchange, and inside it the job record's
// queue wait and run, with the master's reported elapsed time closing the
// run.
func (t *tracedRun) spans() []span {
	at := func(x time.Time) float64 { return ms(x.Sub(t.p.start)) }
	var out []span
	jobOf := map[*request]jobs.Job{}
	for _, e := range t.match() {
		jobOf[e.r] = e.job
	}
	for i, r := range t.p.reqs {
		trace := i + 1
		end := r.done
		if r.async && !r.finished.IsZero() {
			end = r.finished
		}
		out = append(out,
			span{trace, 1, 0, "request", at(r.dueAt), at(end)},
			span{trace, 2, 1, "loadgen.queue", at(r.dueAt), at(r.sent)},
			span{trace, 3, 1, "httpapi", at(r.sent), at(r.done)})
		j, ok := jobOf[r]
		if !ok || j.CacheHit {
			continue
		}
		out = append(out,
			span{trace, 4, 3, "jobs.wait", at(j.Created), at(j.Started)},
			span{trace, 5, 3, "jobs.run", at(j.Started), at(j.Finished)},
			span{trace, 6, 5, "master", at(j.Finished) - r.resp.Elapsed*1e3, at(j.Finished)})
	}
	return out
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
