// Command servebench is the repository's serving benchmark. It builds the
// httpapi server that swserve serves, drives it over a loopback listener
// with one of three seeded traffic mixes (tiny-local, batch-local,
// mixed-cluster), checks every answer, and prints the end-to-end metrics;
// with --trace 1 it instead prints per-layer metrics from a traced phase.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash servebench/run.sh --workload tiny-local --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and the meaning of every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fasta"
	"repro/internal/metrics"
	"repro/internal/seq"
)

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	work     string // directory for generated inputs and span files
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "traffic mix: tiny-local, batch-local or mixed-cluster")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the database, queries and request stream")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: run untraced and traced phases and print per-layer metrics")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "servebench"), "directory for generated inputs and spans")
	flag.Parse()
	o.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := run(ctx, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// conns is the load generator's connection cap: the host's core count, at
// most two.
func conns() int { return min(2, runtime.NumCPU()) }

// setups is how many fresh set-ups each run times; setup_s is their median.
// One set-up takes about a millisecond, too little to time alone.
const setups = 31

// oracleBudget is the search-space cells the brute-force oracle checks per
// run, shared between request classes and modes.
const oracleBudget = 400e6

func run(ctx context.Context, o options, out io.Writer) (*result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown --workload %q (want %s)", o.workload, strings.Join(sortedKeys(workloads), ", "))
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	db, err := database(w.dbScale, o.seed)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.work, o.workload+"-"+strconv.FormatInt(o.seed, 10))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dbPath := filepath.Join(dir, "db.fasta")
	if err := fasta.WriteFile(dbPath, db); err != nil {
		return nil, err
	}
	chk := newChecker(db)
	fmt.Fprintf(out, "servebench %s seed=%d seconds=%g trace=%t: %d sequences, %d residues, %d connections\n",
		o.workload, o.seed, o.seconds, o.trace, len(db), residues(db), conns())

	if o.trace {
		return runTraced(ctx, o, w, db, dbPath, chk, out)
	}

	// Set-up is timed several times on fresh servers; the last one serves
	// the workload.
	var setupTimes []float64
	var s *server
	for i := 0; i < setups; i++ {
		if s != nil {
			if err := s.stop(ctx); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		if s, d, err = startServer(ctx, w, dbPath, nil); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	t := w.traffic(db, o.seed, o.seconds)
	debug.FreeOSMemory()
	rssReset := resetPeakRSS()
	p := measure(ctx, s, chk, t, o.seconds)
	rss, err := peakRSS()
	if err != nil {
		return nil, errors.Join(err, s.stop(ctx))
	}
	if err := s.stop(ctx); err != nil {
		return nil, err
	}
	if rssReset != nil {
		fmt.Fprintf(out, "note: peak RSS could not be reset before the phase (%v); rss_peak_mb covers the whole process\n", rssReset)
	}
	o2 := chk.oracle(pickSamples(p.reqs, o.seed+5, oracleBudget, residues(db)), conns())
	res := score(p, o2)

	lat, latN := latencies(p, classPrimary)
	p50 := median(lat)
	p99, q99 := tail(lat, 0.99)
	blat, blatN := latencies(p, classBulk)
	res.Metrics = map[string]value{
		"goodput_gcups": {goodput(p), "GCUPS"},
		"setup_s":       {median(setupTimes), "s"},
		"rss_peak_mb":   {rss, "MiB"},
	}
	fmt.Fprintf(out, "%-22s %12.4f ms     p50 of n=%d primary requests (reported, not gated)\n", "latency_p50_ms", p50, latN)
	fmt.Fprintf(out, "%-22s %12.4f ms     p%.4g of n=%d primary requests (reported, not gated)\n", "latency_p99_ms", p99, q99*100, latN)
	if blatN > 0 {
		bp99, bq := tail(blat, 0.99)
		fmt.Fprintf(out, "%-22s %12.4f ms     p50 of n=%d bulk jobs (reported, not gated)\n", "bulk_latency_p50_ms", median(blat), blatN)
		fmt.Fprintf(out, "%-22s %12.4f ms     p%.4g of n=%d bulk jobs (reported, not gated)\n", "bulk_latency_p99_ms", bp99, bq*100, blatN)
	}
	fmt.Fprintf(out, "%-22s %12.4f GCUPS  n=%d verified requests over %.3fs\n", "goodput_gcups", goodput(p), res.Attempted-res.Failed, p.wall().Seconds())
	fmt.Fprintf(out, "%-22s %12.4f        n=%d failed of %d attempted (reported, not gated)\n", "fail_ratio", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if o2.refHits > 0 {
		fmt.Fprintf(out, "%-22s %12.4f        n=%d reference hits (reported, not gated)\n", "filtered_recall", o2.recall(), o2.refHits)
	}
	fmt.Fprintf(out, "%-22s %12.4f s      median of n=%d fresh set-ups\n", "setup_s", median(setupTimes), len(setupTimes))
	fmt.Fprintf(out, "%-22s %12.4f MiB    peak resident set of the process during the phase\n", "rss_peak_mb", rss)
	reportOracle(out, o2)
	return res, nil
}

// runTraced runs the workload twice on fresh servers with the same inputs,
// each for half of --seconds: untraced, then traced. It prints per-layer
// metrics from the traced phase and the tracing overhead.
func runTraced(ctx context.Context, o options, w workload, db []*seq.Sequence, dbPath string, chk *checker, out io.Writer) (*result, error) {
	half := o.seconds / 2
	s, _, err := startServer(ctx, w, dbPath, nil)
	if err != nil {
		return nil, err
	}
	untraced := measure(ctx, s, chk, w.traffic(db, o.seed, half), half)
	if err := s.stop(ctx); err != nil {
		return nil, err
	}

	events := &syncBuffer{}
	var evlog *metrics.EventLog
	if !w.cluster {
		evlog = metrics.NewEventLog(events)
	}
	if s, _, err = startServer(ctx, w, dbPath, evlog); err != nil {
		return nil, err
	}
	t := w.traffic(db, o.seed, half)
	tr := &tracedRun{engines: s.engines}
	before, err := snapRegistry(s.api.Registry())
	if err != nil {
		return nil, errors.Join(err, s.stop(ctx))
	}
	tr.rt[0] = readRuntime()
	tr.p = measure(ctx, s, chk, t, half)
	tr.rt[1] = readRuntime()
	after, err := snapRegistry(s.api.Registry())
	if err != nil {
		return nil, errors.Join(err, s.stop(ctx))
	}
	tr.reg = regDelta{before, after}
	// In-memory job records are never pruned (see README.md), so the list
	// holds every record of the phase.
	tr.records = s.api.Jobs().List()
	if err := s.stop(ctx); err != nil {
		return nil, err
	}
	if tr.loads, err = engineLoads(events); err != nil {
		return nil, err
	}
	var qs []*seq.Sequence
	for _, r := range t.reqs {
		qs = append(qs, r.queries...)
	}
	if tr.isolated, err = isolatedGCUPS(db, qs, 2*time.Second); err != nil {
		return nil, err
	}

	all := append(append([]*request(nil), untraced.reqs...), tr.p.reqs...)
	o2 := chk.oracle(pickSamples(all, o.seed+5, oracleBudget, residues(db)), conns())
	res := score(&phase{reqs: all}, o2)
	layers := tr.layers()
	ulat, _ := latencies(untraced, classPrimary)
	tlat, _ := latencies(tr.p, classPrimary)
	layers["trace.overhead_ms"] = median(tlat) - median(ulat)
	res.Metrics = map[string]value{}
	for _, k := range sortedKeys(layers) {
		res.Metrics[k] = value{layers[k], layerUnit(k)}
		fmt.Fprintf(out, "%-30s %14.4f %s\n", k, layers[k], layerUnit(k))
	}
	spanPath := filepath.Join(filepath.Dir(dbPath), "spans.jsonl")
	if err := writeSpans(spanPath, tr.spans()); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %s\n", spanPath)
	reportOracle(out, o2)
	return res, nil
}

// measure runs one phase of t against s for seconds.
func measure(ctx context.Context, s *server, chk *checker, t *traffic, seconds float64) *phase {
	c := newClient(s.base, conns())
	defer c.hc.CloseIdleConnections()
	g := &loadgen{c: c, check: chk, conns: conns()}
	return g.run(ctx, t, time.Duration(seconds*float64(time.Second)))
}

// score counts attempts and failures: every request sent, failed when it
// got no 2xx answer in time or its answer failed a check. Oracle
// mismatches make the run incorrect.
func score(p *phase, o oracleResult) *result {
	res := &result{Correct: o.mismatches == 0, Attempted: len(p.reqs)}
	for _, r := range p.reqs {
		if !r.ok() {
			res.Failed++
		}
		if r.wrong {
			res.Correct = false
		}
	}
	res.Failed += o.mismatches
	return res
}

// latencies returns the latencies of class's requests in milliseconds,
// from due time to answer (async: to the job's finished stamp). A failed
// request counts as requestTimeout.
func latencies(p *phase, class string) ([]float64, int) {
	var out []float64
	for _, r := range p.reqs {
		if r.class != class {
			continue
		}
		end := r.done
		if r.async {
			end = r.finished
		}
		if !r.ok() {
			out = append(out, ms(requestTimeout))
			continue
		}
		out = append(out, ms(end.Sub(r.dueAt)))
	}
	return out, len(out)
}

// goodput is the search space of verified answers per second of the phase.
func goodput(p *phase) float64 {
	var cells int64
	for _, r := range p.reqs {
		if r.ok() {
			cells += r.cells
		}
	}
	return float64(cells) / p.wall().Seconds() / 1e9
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms_"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_gcups"):
		return "GCUPS"
	case strings.HasSuffix(name, "_mb_per_req"):
		return "MiB/req"
	case strings.HasSuffix(name, "ratio") || strings.HasSuffix(name, "_mean") && strings.Contains(name, "selectivity"):
		return "ratio"
	default:
		return "count"
	}
}

func reportOracle(out io.Writer, o oracleResult) {
	fmt.Fprintf(out, "oracle: %d sampled queries checked against brute-force hybridsw.Score, %d mismatches\n", o.checked, o.mismatches)
	if o.firstErr != nil {
		fmt.Fprintf(out, "oracle: first mismatch: %v\n", o.firstErr)
	}
}

// resetPeakRSS restarts the kernel's peak-resident-set counter (VmHWM) of
// this process, so peakRSS covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the process's peak resident set in MiB: VmHWM from
// /proc/self/status, or getrusage's ru_maxrss where /proc is missing.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err != nil {
					return 0, fmt.Errorf("VmHWM: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}
