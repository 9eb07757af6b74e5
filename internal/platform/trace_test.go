package platform

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sched"
)

func TestTraceRoundTrip(t *testing.T) {
	res, err := Run(fig5Experiment(true))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, res); err != nil {
		t.Fatal(err)
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var assigns, samples, summaries, execs int
	for _, e := range events {
		switch e.Kind {
		case "assign":
			assigns++
			if e.PE == "" || len(e.Tasks) == 0 {
				t.Fatalf("bad assign event: %+v", e)
			}
		case "sample":
			samples++
		case "exec":
			execs++
			if e.EndSec < e.TimeSec {
				t.Fatalf("exec window inverted: %+v", e)
			}
		case "summary":
			summaries++
		default:
			t.Fatalf("unknown kind %q", e.Kind)
		}
	}
	if execs < 20 {
		t.Errorf("only %d exec events for a 20-task run", execs)
	}
	if assigns != len(res.Assignments) {
		t.Errorf("assigns = %d, want %d", assigns, len(res.Assignments))
	}
	if samples == 0 || summaries != len(res.PerPE)+1 {
		t.Errorf("samples=%d summaries=%d", samples, summaries)
	}
	sum, ok := TraceSummary(events)
	if !ok {
		t.Fatal("no overall summary")
	}
	if math.Abs(sum.MakespanSec-res.Makespan.Seconds()) > 1e-9 {
		t.Errorf("makespan = %v, want %v", sum.MakespanSec, res.Makespan.Seconds())
	}
	// The replica assignment must be marked.
	found := false
	for _, e := range events {
		if e.Kind == "assign" && e.Replica {
			found = true
		}
	}
	if !found {
		t.Error("replica assignment missing from trace")
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{\"kind\":\"assign\"}\nnot json\n")); err == nil {
		t.Error("garbage line accepted")
	}
}

func TestTraceSummaryMissing(t *testing.T) {
	if _, ok := TraceSummary([]metrics.Event{{Kind: metrics.EventAssign}}); ok {
		t.Error("summary claimed present")
	}
}

func TestTraceNameFallback(t *testing.T) {
	// An assignment referencing a slave beyond PerPE (possible in hand-
	// crafted results) must not panic.
	res := &Result{
		Assignments: []sched.Assignment{{Slave: 9, Tasks: []sched.TaskID{1}}},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pe9") {
		t.Errorf("fallback name missing: %s", buf.String())
	}
}
