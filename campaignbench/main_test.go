package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, err := newSpec("c", 7, true, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newSpec("c", 7, true, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different inputs")
	}
	c, err := newSpec("c", 8, true, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.campaign, c.campaign) || reflect.DeepEqual(a.payload, c.payload) {
		t.Fatal("different seeds generated the same inputs")
	}
}

func TestSameSeedSameSimOutputs(t *testing.T) {
	run := func(seed int64) string {
		s, err := newSpec("sim", seed, false, 40, 25)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := setupSim(t.TempDir(), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := inst.campaign(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		bad, fp, err := inst.check(rep)
		if err != nil || bad != 0 {
			t.Fatalf("check: bad=%d err=%v", bad, err)
		}
		return fp
	}
	first := run(3)
	if again := run(3); again != first {
		t.Fatalf("same seed, different sim outputs:\n%s\n%s", first, again)
	}
	if other := run(4); other == first {
		t.Fatalf("different seeds, identical sim outputs: %s", first)
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, metricName)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
}

// TestManifestCommitted keeps BENCHMARK.json at the repository root in
// step with the catalogue.
func TestManifestCommitted(t *testing.T) {
	want, err := manifest(runSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with --manifest:\n%s", want)
	}
}

func TestRestoreCheckFailsOnCorruptOutput(t *testing.T) {
	s, err := newSpec("cold", 5, true, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := setupLocal(t.TempDir(), s, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	rep, err := inst.campaign(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if bad, _, err := inst.check(rep); bad != 0 || err != nil {
		t.Fatalf("clean campaign failed its check: bad=%d err=%v", bad, err)
	}
	// The check restored every output; flip one byte of one restored file
	// in place. Materialize links the restored file to its store object,
	// so the next restore brings the corrupt bytes back.
	l := inst.(*localInst)
	path := l.restoredPath(l.m.Runs[4].ID)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, 17); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, 17); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if bad, _, err := inst.check(rep); bad != 1 || err == nil {
		t.Fatalf("corrupted restore passed the check: bad=%d err=%v", bad, err)
	}
}

// TestTracedRunReportsExercisedLayers runs each workload through a short
// traced run and requires the per-layer metrics of every layer on its path
// to be measured. The local and sim sweeps are shrunk to keep the test
// short. The remote sweep keeps its size: a campaign of a few runs can end
// before the second worker is admitted, and that worker's session then
// fails the check.
func TestTracedRunReportsExercisedLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	want := map[string][]string{
		"local-cold-sweep": {"savanna.slot_gap_us_p50", "savanna.exec_us_p50", "cas.memo_record_us_p50",
			"cas.put_us_p50", "cas.memo_lookup_us_p50", "cas.materialize_us_p50", "cas.actions_file_kb",
			"cheetah.status_write_us_p50", "cheetah.materialize_s", "resilience.journal_append_us_p50",
			"provenance.append_us_p50", "os.wchar_kb_per_run", "savanna.overhead_explained_frac"},
		"remote-fleet-noop": {"savanna.slot_gap_us_p50", "remote.msgs_per_run", "remote.wire_bytes_per_run",
			"remote.write_us_p50", "remote.read_wait_us_p50", "remote.encode_us_per_msg",
			"remote.decode_us_per_msg", "remote.dispatch_efficiency", "resilience.journal_append_us_p50",
			"provenance.records_per_run"},
		"sim-summit-flaky": {"hpcsim.events_per_run", "hpcsim.allocations", "hpcsim.makespan_h"},
	}
	for _, w := range workloads {
		small := *w
		if w.name != "remote-fleet-noop" {
			small.dims = []int{6, 5}
		}
		res, err := bench(&small, 1, time.Second, true, t.TempDir(), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: traced run incorrect: %+v", w.name, res)
		}
		if n := len(layerMetrics(w)); len(res.Metrics) != n {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), n)
		}
		for _, name := range want[w.name] {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
			}
		}
	}
}
