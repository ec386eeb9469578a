// Command campaignbench measures whole campaigns through the three Savanna
// engines' public entry points — savanna.LocalEngine.RunCampaign,
// remote.Coordinate with in-process remote.Workers, and
// savanna.SimEngine.RunToCompletion — checks their outputs, and prints
// every metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash campaignbench/run.sh --workload remote-fleet-noop --seed 1 --seconds 50 --trace 0
//
// Each workload is a closed loop: the whole sweep is submitted at once and
// each worker slot pulls its next run when the previous one finishes. A run
// repeats set-up + campaign + checks until --seconds have passed and
// reports medians over the campaigns. With --trace 1 it alternates untraced
// and traced campaigns, replays each layer's calls with the traced
// campaign's own call mix, and reports the per-layer metrics instead,
// writing a Chrome trace and the per-layer table under --out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"fairflow/internal/resilience"
)

// runSeconds is the measuring time BENCHMARK.json asks of each run.
const runSeconds = 50

const (
	// warmUp is how long a run's first campaigns warm the process up; they
	// are checked but not measured. The first campaign always is.
	warmUp      = 2 * time.Second
	minUntraced = 3 // measured untraced campaigns per run, at least
	minTraced   = 2 // traced campaigns per traced run, at least
	minSetups   = 2 // measured set-ups per run, at least
	// hardStop ends a run whatever the minimums, well inside the time a
	// run may take.
	hardStop = 120 * time.Second
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed: drives the sweep values, payload bytes, sim durations and faults")
	seconds := fs.Int("seconds", runSeconds, "how long to measure")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from traced campaigns")
	out := fs.String("out", filepath.Join(".bench_build", "campaignbench"), "directory for working files, traces and layer tables")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		b, err := manifest(runSeconds)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "campaignbench: need --workload (one of %s), --seconds ≥ 1, --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "campaignbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// sample is one campaign's measurements.
type sample struct {
	runs       int
	wall       time.Duration
	cpu        time.Duration
	writeBytes int64
	wchar      int64
	syscw      int64
	alloc      uint64
	retries    int
}

func (s sample) runsPerSec() float64 { return float64(s.runs) / s.wall.Seconds() }

// runStats are a run's measurements: campaigns, set-ups, and outcomes.
type runStats struct {
	untraced, traced []sample
	setups           []float64 // seconds per fresh set-up
	materialize      []float64 // seconds of cheetah materialize per set-up
	failed, attempt  int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench runs one workload for the given time and assembles its result.
func bench(w *workload, seed int64, seconds time.Duration, traced bool, outDir string, log io.Writer) (*result, error) {
	s, err := newSpec(w.name, seed, w.payload, w.dims...)
	if err != nil {
		return nil, err
	}
	work := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var (
		rs          runStats
		checkErrs   []error
		fingerprint string
		t           *tracer
		lr          *layerReport
	)
	if traced {
		t = newTracer()
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	start := time.Now()
	done := func() bool {
		elapsed := time.Since(start)
		enough := len(rs.untraced) >= minUntraced && len(rs.setups) >= minSetups &&
			(!traced || len(rs.traced) >= minTraced)
		return elapsed >= hardStop || (elapsed >= seconds && enough)
	}
	// In a traced run every second campaign after the warm-up is traced.
	campaigns := 0
	tracerFor := func() *tracer {
		if traced && campaigns%2 == 0 && time.Since(start) >= warmUp {
			return t
		}
		return nil
	}
	for !done() {
		dir := filepath.Join(work, fmt.Sprint(campaigns))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// Start every set-up from a collected heap, so one campaign's
		// garbage is not charged to the next.
		runtime.GC()
		it := tracerFor()
		setupStart := time.Now()
		inst, err := w.setup(dir, s, it)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTime := time.Since(setupStart)
		warming := campaigns == 0 || time.Since(start) < warmUp
		smp, rep, err := measure(inst, it)
		if err != nil {
			inst.close()
			return nil, err
		}
		campaigns++
		bad, fp, cerr := inst.check(rep)
		rs.attempt += smp.runs
		rs.failed += max(bad, smp.runs-rep.Succeeded-rep.Cached)
		if cerr != nil {
			checkErrs = append(checkErrs, fmt.Errorf("campaign %d: %w", campaigns, cerr))
		}
		if fp != "" {
			if fingerprint == "" {
				fingerprint = fp
			} else if fp != fingerprint {
				rs.failed += smp.runs
				checkErrs = append(checkErrs, fmt.Errorf("campaign %d: same seed, different outputs: %s vs %s", campaigns, fp, fingerprint))
			}
		}
		kind := "untraced"
		switch {
		case warming:
			kind = "warm-up"
		case it == nil:
			rs.untraced = append(rs.untraced, smp)
		default:
			kind = "traced"
			rs.traced = append(rs.traced, smp)
			if lr == nil {
				// The layer replay runs once, on the first traced
				// campaign's artifacts, while they still exist.
				if lr, err = replayLayers(inst, filepath.Join(dir, "replay"), t, base+".trace.json"); err != nil {
					inst.close()
					return nil, err
				}
			}
			lr.pool.add(t.tr.Snapshot())
			t.tr.Reset()
			t.takeConns()
		}
		if !warming {
			rs.setups = append(rs.setups, setupTime.Seconds())
			rs.materialize = append(rs.materialize, inst.facts().materialize.Seconds())
		}
		fmt.Fprintf(log, "campaign %d (%s): set-up %.3f s, %d runs, %.1f runs/s, %.1f cpu us/run\n",
			campaigns, kind, setupTime.Seconds(), smp.runs, smp.runsPerSec(), float64(smp.cpu.Microseconds())/float64(smp.runs))
		inst.close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		syncFS()
	}
	for _, err := range checkErrs {
		fmt.Fprintf(log, "check failed: %v\n", err)
	}

	rss, err := peakRSSBytes()
	if err != nil {
		return nil, err
	}
	perRun := func(fn func(s sample) float64) float64 {
		return median(sampleValues(rs.untraced, func(s sample) float64 { return fn(s) / float64(s.runs) }))
	}
	e2e := map[string]float64{
		"runs_per_s":       median(sampleValues(rs.untraced, sample.runsPerSec)),
		"cpu_us_per_run":   perRun(func(s sample) float64 { return float64(s.cpu) / float64(time.Microsecond) }),
		"alloc_kb_per_run": perRun(func(s sample) float64 { return float64(s.alloc) / 1024 }),
		"peak_rss_mb":      float64(rss) / (1 << 20),
		"setup_s":          median(rs.setups),
		"write_kb_per_run": perRun(func(s sample) float64 { return float64(s.writeBytes) / 1024 }),
		"failed_run_frac":  float64(rs.failed) / float64(max(rs.attempt, 1)),
	}
	fmt.Fprintf(log, "%s seed=%d runs/campaign=%d: %d set-ups, %d campaigns (%d untraced, %d traced), %d runs attempted, %d failed\n",
		w.name, seed, w.runs(), len(rs.setups), campaigns, len(rs.untraced), len(rs.traced), rs.attempt, rs.failed)
	for _, n := range []string{"runs_per_s", "cpu_us_per_run", "write_kb_per_run", "alloc_kb_per_run", "peak_rss_mb", "setup_s", "failed_run_frac"} {
		fmt.Fprintf(log, "  %-18s %14.4f %s\n", n, e2e[n], unitOf(n))
	}

	res := &result{Correct: len(checkErrs) == 0 && rs.failed == 0, Attempted: rs.attempt, Failed: rs.failed,
		Metrics: map[string]metricValue{}}
	if !traced {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
		return res, nil
	}

	lr.finish(rs)
	writeLayerTable(log, w.name, lr.m)
	f, err := os.Create(base + ".layers.txt")
	if err != nil {
		return nil, err
	}
	writeLayerTable(f, w.name, lr.m)
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "wrote %s.trace.json and %s.layers.txt\n", base, base)
	for _, d := range layerMetrics(w) {
		res.Metrics[d.name] = metricValue{lr.m[d.name], d.unit}
	}
	return res, nil
}

func unitOf(name string) string {
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// measure runs the instance's campaign call, measuring the call alone.
func measure(inst instance, t *tracer) (sample, resilience.CompletenessReport, error) {
	var m sample
	end := t.begin("campaign")
	c0, err := readCounters()
	if err != nil {
		return m, resilience.CompletenessReport{}, err
	}
	rep, err := inst.campaign(context.Background())
	c1, cerr := readCounters()
	end()
	if err = errors.Join(err, cerr); err != nil {
		return m, rep, err
	}
	m.runs = rep.Succeeded + rep.Cached + rep.Failed + rep.Quarantined + rep.Skipped
	if m.runs == 0 {
		return m, rep, fmt.Errorf("campaign finished no runs: %s", rep)
	}
	m.retries = rep.Retries
	m.wall = c1.at.Sub(c0.at)
	m.cpu = c1.cpu - c0.cpu
	m.writeBytes = c1.writeBytes - c0.writeBytes
	m.wchar = c1.wchar - c0.wchar
	m.syscw = c1.syscw - c0.syscw
	m.alloc = c1.alloc - c0.alloc
	return m, rep, nil
}

// replayLayers reads the finished campaign's artifacts, replays its layer
// calls, writes the campaign's and the replay's spans as a Chrome trace,
// and computes the per-layer metrics that depend on that campaign.
func replayLayers(inst instance, dir string, t *tracer, tracePath string) (*layerReport, error) {
	f := inst.facts()
	mix, err := readJournalMix(f)
	if err != nil {
		return nil, err
	}
	var wire [][]byte
	for _, c := range t.takeConns() {
		wire = append(wire, c.written())
	}
	if err := replay(dir, f, mix, wire, t); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	spans := t.tr.Snapshot()
	if err := writeChromeTrace(tracePath, spans); err != nil {
		return nil, err
	}
	return artifactMetrics(f, mix, wire, spans)
}

// syncFS flushes dirty data to disk, so writeback left over from one
// campaign does not land inside the next one's measurement.
func syncFS() { syscall.Sync() }
