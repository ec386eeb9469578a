package savanna

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

func TestResourceUsageAccumulate(t *testing.T) {
	var u ResourceUsage
	if !u.Zero() {
		t.Fatal("fresh usage not zero")
	}
	u.Accumulate(ResourceUsage{CPUUserSeconds: 1, CPUSystemSeconds: 0.5, MaxRSSBytes: 100})
	u.Accumulate(ResourceUsage{CPUUserSeconds: 2, CPUSystemSeconds: 0.25, MaxRSSBytes: 50})
	if u.CPUUserSeconds != 3 || u.CPUSystemSeconds != 0.75 {
		t.Errorf("CPU sums wrong: %+v", u)
	}
	if u.MaxRSSBytes != 100 {
		t.Errorf("RSS should be the max across attempts, got %d", u.MaxRSSBytes)
	}
	if u.CPUSeconds() != 3.75 {
		t.Errorf("CPUSeconds = %v", u.CPUSeconds())
	}
}

func TestResourceSinkContext(t *testing.T) {
	if ResourceSinkFrom(context.Background()) != nil {
		t.Fatal("sink from bare context")
	}
	var u ResourceUsage
	ctx := WithResourceSink(context.Background(), &u)
	if ResourceSinkFrom(ctx) != &u {
		t.Fatal("sink not carried")
	}
}

func requireRusagePlatform(t *testing.T) {
	t.Helper()
	switch runtime.GOOS {
	case "linux", "darwin":
	default:
		t.Skipf("no rusage accounting on %s", runtime.GOOS)
	}
}

// TestProcessExecutorCapturesRusage: a CPU-burning child's consumed CPU time
// and peak RSS land in the context's resource sink.
func TestProcessExecutorCapturesRusage(t *testing.T) {
	requireRusagePlatform(t)
	exe := &ProcessExecutor{
		Command: []string{"sh", "-c", "i=0; while [ $i -lt 300000 ]; do i=$((i+1)); done"},
	}
	var usage ResourceUsage
	ctx := WithResourceSink(context.Background(), &usage)
	if err := exe.ExecuteContext(ctx, cheetah.Run{ID: "burn"}); err != nil {
		t.Fatal(err)
	}
	if usage.CPUSeconds() <= 0 {
		t.Errorf("CPU-burning run reported %.6fs CPU", usage.CPUSeconds())
	}
	if usage.MaxRSSBytes <= 0 {
		t.Errorf("run reported %d peak RSS bytes", usage.MaxRSSBytes)
	}
}

// TestProcessExecutorRusageAfterDeadlineKill is the regression test for the
// kill path: a child cut off by the per-run deadline (process-group SIGKILL)
// must still report the resources it consumed before dying — cmd.Wait's
// error does not mean ProcessState is gone.
func TestProcessExecutorRusageAfterDeadlineKill(t *testing.T) {
	requireRusagePlatform(t)
	exe := &ProcessExecutor{
		// Burn CPU briefly, then sleep far past the deadline: the kill lands
		// on a sleeping child that already has CPU time and RSS on the books.
		Command: []string{"sh", "-c", "i=0; while [ $i -lt 300000 ]; do i=$((i+1)); done; sleep 30"},
		Timeout: 2 * time.Second,
	}
	var usage ResourceUsage
	ctx := WithResourceSink(context.Background(), &usage)
	start := time.Now()
	err := exe.ExecuteContext(ctx, cheetah.Run{ID: "killed"})
	if err == nil {
		t.Fatal("deadline-killed run reported success")
	}
	if resilience.Classify(err) != resilience.ClassDeadline {
		t.Fatalf("kill classified %q (%v)", resilience.Classify(err), err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("kill took %s", elapsed)
	}
	if usage.CPUSeconds() <= 0 {
		t.Errorf("killed run lost its CPU accounting: %.6fs", usage.CPUSeconds())
	}
	if usage.MaxRSSBytes <= 0 {
		t.Errorf("killed run lost its RSS accounting: %d bytes", usage.MaxRSSBytes)
	}
}

// TestProcessExecutorNoSinkStillRuns: resource capture is optional — without
// a sink in the context the executor behaves as before.
func TestProcessExecutorNoSinkStillRuns(t *testing.T) {
	exe := &ProcessExecutor{Command: []string{"sh", "-c", "true"}}
	if err := exe.ExecuteContext(context.Background(), cheetah.Run{ID: "plain"}); err != nil {
		t.Fatal(err)
	}
}

// TestTerminalRecordsCarryUsage pins that a run settled after at least one
// attempt carries its elapsed time and accumulated resource usage to the
// provenance record, the span, the cost histograms and the run.resources
// event — whether it ends quarantined or failed.
func TestTerminalRecordsCarryUsage(t *testing.T) {
	charge := ResourceUsage{CPUUserSeconds: 0.5, CPUSystemSeconds: 0.25, MaxRSSBytes: 8 << 20}
	for _, tc := range []struct {
		name     string
		err      error
		attempts int
	}{
		{"quarantined", resilience.MarkTransient(fmt.Errorf("flaky")), 2},
		{"failed", resilience.MarkPermanent(fmt.Errorf("bad parameters")), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exec := &ctxFuncExecutor{fn: func(ctx context.Context, run cheetah.Run) error {
				ResourceSinkFrom(ctx).Accumulate(charge)
				return tc.err
			}}
			prov := provenance.NewStore()
			tracer := telemetry.NewTracer()
			reg := telemetry.NewRegistry()
			events := eventlog.NewLog()
			eng := &LocalEngine{Executor: exec, Workers: 1, Prov: prov,
				Resilience: &resilience.Config{Retry: resilience.RetryPolicy{MaxAttempts: 5},
					QuarantineAfter: 2, Sleep: noSleep},
				Tracer: tracer, Metrics: reg, Events: events}
			runs, _ := testCampaign(1).EnumerateRuns()
			if _, err := eng.RunAll("usage", runs); err != nil {
				t.Fatal(err)
			}
			want := ResourceUsage{}
			for i := 0; i < tc.attempts; i++ {
				want.Accumulate(charge)
			}
			checkSettledUsage(t, prov, tracer, "savanna.run", events,
				reg.Histogram("savanna.run_cpu_seconds", nil), want)
		})
	}
}

// checkSettledUsage asserts the one settled run's four cost sinks carry want.
func checkSettledUsage(t *testing.T, prov *provenance.Store, tracer *telemetry.Tracer, spanName string,
	events *eventlog.Log, cpu *telemetry.Histogram, want ResourceUsage) {
	t.Helper()
	recs := prov.Select(provenance.Query{})
	if len(recs) != 1 {
		t.Fatalf("provenance records = %d, want 1", len(recs))
	}
	rec := recs[0]
	if !rec.End.After(rec.Start) {
		t.Errorf("provenance record spans no time: %v .. %v", rec.Start, rec.End)
	}
	if rec.Resources == nil || rec.Resources.CPUUserSeconds != want.CPUUserSeconds ||
		rec.Resources.CPUSystemSeconds != want.CPUSystemSeconds || rec.Resources.MaxRSSBytes != want.MaxRSSBytes {
		t.Errorf("provenance resources = %+v, want %+v", rec.Resources, want)
	}
	cpuAttr := strconv.FormatFloat(want.CPUSeconds(), 'g', -1, 64)
	var spanCPU string
	for _, s := range tracer.Snapshot() {
		if s.Name == spanName {
			spanCPU = s.Attr("cpu_s")
		}
	}
	if spanCPU != cpuAttr {
		t.Errorf("%s span cpu_s = %q, want %s", spanName, spanCPU, cpuAttr)
	}
	if cpu.Count() != 1 || cpu.Sum() != want.CPUSeconds() {
		t.Errorf("cpu histogram count=%d sum=%g, want 1 and %g", cpu.Count(), cpu.Sum(), want.CPUSeconds())
	}
	var resources int
	for _, ev := range events.Snapshot() {
		if ev.Type == eventlog.RunResources && ev.Attr("cpu_s") == cpuAttr {
			resources++
		}
	}
	if resources != 1 {
		t.Errorf("run.resources events with cpu_s=%s: %d, want 1", cpuAttr, resources)
	}
}
