package savanna

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

var updateGolden = flag.Bool("update", false, "rewrite the ledger equivalence fixtures under testdata/ledger")

// ledgerSnapshot is what one campaign leaves in the sinks every run
// transition writes to, one line per record so fixture diffs read line by
// line. Wall-clock values are normalised away: journal and event
// timestamps, span ids, provenance Start/End (kept only as "some time
// elapsed") and the sums and buckets of wall-clock histograms.
type ledgerSnapshot struct {
	Results    []string                      `json:"results,omitempty"`
	Report     resilience.CompletenessReport `json:"report"`
	Journal    []string                      `json:"journal"`
	Provenance []string                      `json:"provenance,omitempty"`
	Events     []string                      `json:"events"`
	Metrics    []string                      `json:"metrics"`
	Status     map[string]string             `json:"status,omitempty"`
}

func jsonLine(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// resultLines renders run results with their wall-clock Seconds zeroed.
func resultLines(t *testing.T, results []RunResult) []string {
	lines := make([]string, len(results))
	for i, r := range results {
		r.Seconds = 0
		lines[i] = jsonLine(t, r)
	}
	return lines
}

// journalLines returns the journal file's records, one JSON line each. With
// zeroTime the record timestamps are zeroed and the lines re-encoded;
// otherwise the bytes are kept exactly as written.
func journalLines(t *testing.T, path string, zeroTime bool) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !zeroTime {
		return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	}
	recs, err := resilience.DecodeJournal(data)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(recs))
	for i, r := range recs {
		r.Time = time.Time{}
		lines[i] = jsonLine(t, r)
	}
	return lines
}

func provLines(t *testing.T, prov *provenance.Store) []string {
	var out []string
	for _, r := range prov.Select(provenance.Query{}) {
		elapsed := r.End.After(r.Start)
		r.Start, r.End = time.Time{}, time.Time{}
		out = append(out, fmt.Sprintf("elapsed=%v %s", elapsed, jsonLine(t, r)))
	}
	return out
}

// eventLines renders each event as "level type [msg] key=value...".
func eventLines(l *eventlog.Log) []string {
	var out []string
	for _, ev := range l.Snapshot() {
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s", ev.Level, ev.Type)
		if ev.Msg != "" {
			fmt.Fprintf(&b, " %q", ev.Msg)
		}
		for _, a := range ev.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		out = append(out, b.String())
	}
	return out
}

// metricLines renders reg's instruments; the histograms named in wall
// observe wall-clock durations, so only their observation counts are kept.
func metricLines(reg *telemetry.Registry, wall ...string) []string {
	snap := reg.Snapshot()
	labels := func(m map[string]string) string {
		if len(m) == 0 {
			return ""
		}
		return fmt.Sprint(m)
	}
	var out []string
	for _, c := range snap.Counters {
		out = append(out, fmt.Sprintf("counter %s%s = %d", c.Name, labels(c.Labels), c.Value))
	}
	for _, g := range snap.Gauges {
		out = append(out, fmt.Sprintf("gauge %s%s = %g", g.Name, labels(g.Labels), g.Value))
	}
	for _, h := range snap.Histograms {
		line := fmt.Sprintf("histogram %s%s count=%d sum=%g counts=%v inf=%d", h.Name, labels(h.Labels), h.Count, h.Sum, h.Counts, h.Inf)
		for _, w := range wall {
			if h.Name == w {
				line = fmt.Sprintf("histogram %s%s count=%d", h.Name, labels(h.Labels), h.Count)
			}
		}
		out = append(out, line)
	}
	return out
}

// checkGolden compares got, rendered as indented JSON, with
// testdata/ledger/<name>.json (rewritten under -update).
func checkGolden(t *testing.T, name string, got any) {
	t.Helper()
	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	path := filepath.Join("testdata", "ledger", name+".json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(b, want) {
		return
	}
	gl, wl := strings.Split(string(b), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs from the fixture at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// usageExecutor charges every attempt a fixed resource usage, then fails
// it as fail decides (attempt counts from 1 per run).
type usageExecutor struct {
	fail     func(run cheetah.Run, attempt int) error
	mu       sync.Mutex
	attempts map[string]int
}

var attemptUsage = ResourceUsage{CPUUserSeconds: 0.25, CPUSystemSeconds: 0.125, MaxRSSBytes: 1 << 20}

func (x *usageExecutor) Execute(run cheetah.Run) error {
	return x.ExecuteContext(context.Background(), run)
}

func (x *usageExecutor) ExecuteContext(ctx context.Context, run cheetah.Run) error {
	x.mu.Lock()
	if x.attempts == nil {
		x.attempts = map[string]int{}
	}
	x.attempts[run.ID]++
	n := x.attempts[run.ID]
	x.mu.Unlock()
	if sink := ResourceSinkFrom(ctx); sink != nil {
		sink.Accumulate(attemptUsage)
	}
	if x.fail == nil {
		return nil
	}
	return x.fail(run, n)
}

// ledgerScenario is one row of the equivalence tables: a campaign shape
// plus the fault it injects. Runs are indexed 0..runs-1.
type ledgerScenario struct {
	name string
	runs int
	// fail injects a fault on run i's attempt n (nil: succeed).
	fail func(i, attempt int) error
	// tune adjusts the resilience config; gate lists runs whose sweep
	// point is quarantined before the campaign starts.
	tune   func(*resilience.Config)
	gate   []int
	cached []int // runs whose recipe is in the memo before the campaign
	sets   bool  // LocalEngine: run set-synchronized with sets of one
}

func ledgerScenarios() []ledgerScenario {
	transientOnce := func(i, n int) error {
		if i == 0 && n == 1 {
			return resilience.MarkTransient(errors.New("flaky once"))
		}
		return nil
	}
	permanent := func(i, n int) error {
		if i == 0 {
			return resilience.MarkPermanent(errors.New("bad parameters"))
		}
		return nil
	}
	poisoned := func(i, n int) error {
		if i == 0 {
			return resilience.MarkTransient(fmt.Errorf("poisoned attempt %d", n))
		}
		return nil
	}
	return []ledgerScenario{
		{name: "success", runs: 2},
		{name: "cached", runs: 2, cached: []int{0}},
		{name: "retry", runs: 1, fail: transientOnce},
		{name: "permanent", runs: 2, fail: permanent},
		{name: "quarantine", runs: 2, fail: poisoned,
			tune: func(c *resilience.Config) { c.QuarantineAfter = 2; c.Retry.MaxAttempts = 5 }},
		{name: "quarantine-gate", runs: 2, gate: []int{0},
			tune: func(c *resilience.Config) { c.QuarantineAfter = 1 }},
		{name: "stop-skip", runs: 3, fail: permanent, sets: true,
			tune: func(c *resilience.Config) { c.Stop = resilience.StopPolicy{MaxFailureFraction: 0.5, MinCompleted: 1} }},
	}
}

// resilienceFor builds a scenario's resilience config over journal.
func (sc ledgerScenario) resilienceFor(journal *resilience.Journal, runs []cheetah.Run) *resilience.Config {
	cfg := &resilience.Config{
		Retry:   resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: 30 * time.Second},
		Journal: journal,
		Sleep:   noSleep,
		Seed:    7,
	}
	if sc.tune != nil {
		sc.tune(cfg)
	}
	for _, i := range sc.gate {
		cfg.Restore = append(cfg.Restore, PointKey(runs[i]))
	}
	return cfg
}

// runIndex maps run ids to their position in the campaign.
func runIndex(runs []cheetah.Run) map[string]int {
	idx := make(map[string]int, len(runs))
	for i, r := range runs {
		idx[r.ID] = i
	}
	return idx
}

// TestLedgerEquivalenceLocal pins what LocalEngine writes for each run
// transition: journal, provenance, events, metrics, status files and the
// per-run results.
func TestLedgerEquivalenceLocal(t *testing.T) {
	for _, sc := range ledgerScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := cheetah.BuildManifest(testCampaign(sc.runs))
			if err != nil {
				t.Fatal(err)
			}
			cdir, err := m.Materialize(filepath.Join(dir, "campaign"))
			if err != nil {
				t.Fatal(err)
			}
			jpath := filepath.Join(dir, "attempts.jsonl")
			journal, err := resilience.OpenJournal(jpath)
			if err != nil {
				t.Fatal(err)
			}
			idx := runIndex(m.Runs)
			exec := &usageExecutor{}
			if sc.fail != nil {
				exec.fail = func(run cheetah.Run, n int) error { return sc.fail(idx[run.ID], n) }
			}
			memo := newMemo(t, dir)
			for _, i := range sc.cached {
				if _, err := memo.Record(m.Runs[i]); err != nil {
					t.Fatal(err)
				}
			}
			prov := provenance.NewStore()
			events := eventlog.NewLog()
			reg := telemetry.NewRegistry()
			eng := &LocalEngine{
				Executor: exec, Workers: 1, Prov: prov, CampaignDir: cdir,
				Resilience: sc.resilienceFor(journal, m.Runs), Memo: memo,
				Tracer: telemetry.NewTracer(), Metrics: reg, Events: events,
			}
			var snap ledgerSnapshot
			var results []RunResult
			if sc.sets {
				results, err = eng.RunSets(m.Campaign.Name, m.Runs, 1)
			} else {
				results, snap.Report, err = eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := journal.Close(); err != nil {
				t.Fatal(err)
			}
			snap.Results = resultLines(t, results)
			snap.Journal = journalLines(t, jpath, true)
			snap.Provenance = provLines(t, prov)
			snap.Events = eventLines(events)
			snap.Metrics = metricLines(reg, "savanna.run_seconds")
			snap.Status = map[string]string{}
			for _, r := range m.Runs {
				b, err := os.ReadFile(filepath.Join(cdir, r.ID, "status"))
				if err != nil {
					t.Fatal(err)
				}
				snap.Status[r.ID] = string(b)
			}
			checkGolden(t, "local-"+sc.name, snap)
		})
	}
}

// TestLedgerEquivalenceSim pins what SimEngine writes for each run
// transition. Its journal is stamped in virtual time, so it is compared
// byte for byte.
func TestLedgerEquivalenceSim(t *testing.T) {
	for _, sc := range ledgerScenarios() {
		if len(sc.cached) > 0 {
			continue // the simulated engine has no memo
		}
		t.Run(sc.name, func(t *testing.T) {
			runs := simRuns(t, sc.runs)
			jpath := filepath.Join(t.TempDir(), "attempts.jsonl")
			journal, err := resilience.OpenJournal(jpath)
			if err != nil {
				t.Fatal(err)
			}
			idx := runIndex(runs)
			events := eventlog.NewLog()
			reg := telemetry.NewRegistry()
			eng := &SimEngine{
				Durations:  LogNormalDurations(60, 0.2),
				Seed:       11,
				Resilience: sc.resilienceFor(journal, runs),
				Tracer:     telemetry.NewTracer(), Metrics: reg, Events: events,
			}
			if sc.fail != nil {
				eng.FaultModel = func(run cheetah.Run, attempt int, _ *rand.Rand) error {
					return sc.fail(idx[run.ID], attempt)
				}
			}
			out, err := eng.RunToCompletion(runs, 1, 8*3600, Dynamic, 5, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := journal.Close(); err != nil {
				t.Fatal(err)
			}
			snap := ledgerSnapshot{
				Report:  out.Report,
				Journal: journalLines(t, jpath, false),
				Events:  eventLines(events),
				Metrics: metricLines(reg),
			}
			checkGolden(t, "sim-"+sc.name, snap)
		})
	}
}
