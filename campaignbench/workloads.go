package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/hpcsim"
	"fairflow/internal/provenance"
	"fairflow/internal/remote"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
)

// workload is one benchmark input set. Its sweep size is part of its
// definition: memo record cost grows with the cache, so a different size
// is a different workload.
type workload struct {
	name string
	why  string
	// dims are the sweep's parameter value counts (runs = their product).
	dims []int
	// payload: whether runs write seed-derived output bytes.
	payload bool
	// gated: listed in BENCHMARK.json. A workload that is not is still
	// run by name, for its per-layer table.
	gated bool
	// setup builds one campaign ready to run. Everything it does is
	// set-up time: materialize, prime, start workers.
	setup func(dir string, s *spec, t *tracer) (instance, error)
}

func (w *workload) runs() int {
	n := 1
	for _, d := range w.dims {
		n *= d
	}
	return n
}

// instance is one set-up campaign.
type instance interface {
	// campaign is the measured call: the whole sweep submitted at once
	// through the engine's public entry point.
	campaign(ctx context.Context) (resilience.CompletenessReport, error)
	// check verifies the outputs. bad counts runs whose output check
	// failed; fingerprint summarises outputs that must repeat exactly for
	// the same seed ("" when there is none).
	check(rep resilience.CompletenessReport) (bad int, fingerprint string, err error)
	// facts exposes the artifacts the per-layer pass reads.
	facts() *facts
	close()
}

// facts are a finished campaign's own artifacts: where its journal,
// campaign directory, cache and provenance live and how far they grew. The
// per-layer pass takes every call count and size from these.
type facts struct {
	runs        []cheetah.Run
	journal     string // "" when the workload has no journal
	campaignDir string
	outPath     func(runID string) string
	memo        *savanna.Memo // nil when the workload has no memo
	prov        *provenance.Store
	execCalls   int64
	actionsFile string
	materialize time.Duration // cheetah materialize during set-up
	metrics     *telemetry.Registry
	sims        []*hpcsim.Sim
	simOut      *savanna.CampaignOutcome
}

var workloads = []*workload{
	{
		name: "local-cold-sweep",
		why: "write side of the run path: every run executes, so memo record, CAS put, " +
			"status writes and journal appends all run once per run",
		dims: []int{16, 16}, payload: true,
		setup: setupLocal,
		// Not gated: its time metrics follow the host's filesystem and
		// spread past every bound BENCHMARK.json may set (README).
	},
	{
		name: "remote-fleet-noop",
		why: "coordinator cost per run: dispatch, the remote.v1 wire, the journal and provenance, " +
			"with a no-op payload and no status files or memo",
		dims:  []int{100, 100},
		gated: true,
		setup: setupRemote,
	},
	{
		name: "sim-summit-flaky",
		why: "host cost of hpcsim, the sim scheduler and the resilience controller under retries " +
			"at 1e5 runs on 128 simulated nodes, with no disk or wire work",
		dims:  []int{400, 250},
		gated: true,
		setup: setupSim,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- local engine: local-cold-sweep ----

// autoSync is the journals' batched-fsync stride: every 32nd append
// fsyncs.
const autoSync = 32

type localInst struct {
	s           *spec
	m           *cheetah.Manifest
	dir         string
	cdir        string
	journal     *resilience.Journal
	jpath       string
	eng         *savanna.LocalEngine
	memo        *savanna.Memo
	t           *tracer
	calls       atomic.Int64
	actionsFile string
	materialize time.Duration
}

func setupLocal(dir string, s *spec, t *tracer) (instance, error) {
	m, err := cheetah.BuildManifest(s.campaign)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cdir, err := m.Materialize(filepath.Join(dir, "campaigns"))
	if err != nil {
		return nil, err
	}
	l := &localInst{s: s, m: m, dir: dir, cdir: cdir, t: t, materialize: time.Since(start)}
	store, err := cas.Open(filepath.Join(dir, "cas"))
	if err != nil {
		return nil, err
	}
	l.actionsFile = filepath.Join(dir, "cas", "actions.json")
	cache, err := cas.OpenActionCache(l.actionsFile, store)
	if err != nil {
		return nil, err
	}
	l.jpath = filepath.Join(dir, "attempts.jsonl")
	if l.journal, err = resilience.OpenJournal(l.jpath); err != nil {
		return nil, err
	}
	l.journal.SetAutoSync(autoSync)
	l.memo = &savanna.Memo{Cache: cache, ComponentDigest: s.component, InputDigests: s.inputs, Collect: l.collect}
	l.eng = &savanna.LocalEngine{
		Executor:    l,
		Workers:     2,
		Prov:        provenance.NewStore(),
		CampaignDir: cdir,
		Resilience:  &resilience.Config{Journal: l.journal, Seed: s.seed},
		Memo:        l.memo,
	}
	return l, nil
}

func (l *localInst) outPath(runID string) string {
	return filepath.Join(l.cdir, filepath.FromSlash(runID), "out.dat")
}

// Execute is the payload: write the run's seed-derived output file.
func (l *localInst) Execute(run cheetah.Run) error {
	l.calls.Add(1)
	return l.t.exec(func() error {
		return os.WriteFile(l.outPath(run.ID), l.s.payload[run.ID], 0o644)
	})
}

func (l *localInst) collect(run cheetah.Run) (out map[string]string, err error) {
	err = l.t.timed("collect", func() error {
		out = map[string]string{"out": l.outPath(run.ID)}
		return nil
	})
	return out, err
}

func (l *localInst) campaign(ctx context.Context) (resilience.CompletenessReport, error) {
	_, rep, err := l.eng.RunCampaign(ctx, l.s.campaign.Name, l.m.Runs)
	return rep, err
}

// restoredPath is where the check restores a run's cached output.
func (l *localInst) restoredPath(runID string) string {
	return filepath.Join(l.dir, "restored", filepath.FromSlash(runID), "out.dat")
}

func (l *localInst) check(rep resilience.CompletenessReport) (int, string, error) {
	var repErr error
	if n := len(l.m.Runs); rep.Succeeded != n || rep.Cached != 0 {
		repErr = fmt.Errorf("cold sweep: report %s", rep)
	}
	termBad, termErr := checkTerminalOnce(l.jpath, l.m.Runs)
	outBad, outErr := checkCachedOutputs(l.s, l.m.Runs, l.memo, l.restoredPath)
	return max(termBad, outBad), "", errors.Join(repErr, termErr, outErr)
}

func (l *localInst) facts() *facts {
	return &facts{
		runs: l.m.Runs, journal: l.jpath, campaignDir: l.cdir, outPath: l.outPath, memo: l.memo,
		prov: l.eng.Prov, execCalls: l.calls.Load(), actionsFile: l.actionsFile, materialize: l.materialize,
	}
}

func (l *localInst) close() { l.journal.Close() }

// checkTerminalOnce requires the journal to hold exactly one terminal
// record per run, and that it is a success.
func checkTerminalOnce(path string, runs []cheetah.Run) (int, error) {
	recs, err := resilience.ReadJournalFile(path)
	if err != nil {
		return len(runs), err
	}
	const want = resilience.AttemptSuccess
	terminal := map[string]int{}
	for _, r := range recs {
		switch r.Event {
		case resilience.AttemptSuccess, resilience.AttemptCached, resilience.AttemptQuarantined, resilience.AttemptSkipped:
			if r.Event != want {
				terminal[r.Run] += 2 // a wrong terminal kind can never pass
			} else {
				terminal[r.Run]++
			}
		}
	}
	bad := 0
	for _, r := range runs {
		if terminal[r.ID] != 1 {
			bad++
		}
	}
	if bad > 0 {
		return bad, fmt.Errorf("journal: %d of %d runs lack exactly one %q record", bad, len(runs), want)
	}
	return 0, nil
}

// checkCachedOutputs requires every run's cached output digest to be the
// sha256 of the bytes the seed defines. It then restores the output from
// the store through cas.Store.Materialize, as a re-submission would, and
// requires the restored file to hold exactly those bytes.
func checkCachedOutputs(s *spec, runs []cheetah.Run, memo *savanna.Memo, restoredPath func(string) string) (int, error) {
	bad := 0
	for _, r := range runs {
		want := s.payload[r.ID]
		res, ok := memo.Lookup(r)
		if !ok || res.Outputs["out"] != cas.HashBytes(want) {
			bad++
			continue
		}
		dst := restoredPath(r.ID)
		if err := memo.Cache.Store().Materialize(res.Outputs["out"], dst); err != nil {
			bad++
			continue
		}
		if got, err := os.ReadFile(dst); err != nil || !bytes.Equal(got, want) {
			bad++
		}
	}
	if bad > 0 {
		return bad, fmt.Errorf("cache: %d of %d runs have a missing or wrong output digest, or restore to other bytes", bad, len(runs))
	}
	return 0, nil
}

// ---- remote engine: remote-fleet-noop ----

type remoteInst struct {
	s       *spec
	m       *cheetah.Manifest
	eng     *remote.Engine
	jpath   string
	t       *tracer
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	werrs   []error
	calls   atomic.Int64
	info    remote.HandoverInfo
	reg     *telemetry.Registry
	stopped bool
}

func setupRemote(dir string, s *spec, t *tracer) (instance, error) {
	m, err := cheetah.BuildManifest(s.campaign)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &remoteInst{s: s, m: m, jpath: filepath.Join(dir, "attempts.jsonl"), t: t}
	r.eng = &remote.Engine{Listener: ln, Prov: provenance.NewStore()}
	if t != nil {
		r.eng.Listener = tracedListener{Listener: ln, t: t}
		r.reg = telemetry.NewRegistry()
		r.eng.Metrics = r.reg
	}
	addr := ln.Addr().String()
	var ctx context.Context
	ctx, r.cancel = context.WithCancel(context.Background())
	r.werrs = make([]error, 2)
	for i := range r.werrs {
		w := &remote.Worker{
			Name:     fmt.Sprintf("w%d", i),
			Executor: r,
			Slots:    1,
			Dial: func() (net.Conn, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				return t.wrap(c, "worker"), nil
			},
		}
		r.wg.Add(1)
		go func(i int) {
			defer r.wg.Done()
			r.werrs[i] = w.Run(ctx)
		}(i)
	}
	return r, nil
}

// Execute is the no-op payload.
func (r *remoteInst) Execute(run cheetah.Run) error {
	r.calls.Add(1)
	return r.t.exec(func() error { return nil })
}

func (r *remoteInst) campaign(ctx context.Context) (resilience.CompletenessReport, error) {
	_, rep, info, err := remote.Coordinate(ctx, remote.CoordinateConfig{
		Engine: r.eng, Campaign: r.s.campaign.Name, Runs: r.m.Runs, Journal: r.jpath,
		AutoSync: autoSync,
	})
	r.info = info
	return rep, err
}

// stopWorkers waits for both workers to leave after the drain, cancelling
// them if they have not within the grace period.
func (r *remoteInst) stopWorkers() error {
	if r.stopped {
		return nil
	}
	r.stopped = true
	done := make(chan struct{})
	go func() { r.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		err = fmt.Errorf("workers still running 10s after the campaign ended")
	}
	r.cancel()
	<-done
	return err
}

func (r *remoteInst) check(rep resilience.CompletenessReport) (int, string, error) {
	n := len(r.m.Runs)
	errs := []error{r.stopWorkers()}
	for i, err := range r.werrs {
		if err != nil {
			errs = append(errs, fmt.Errorf("worker w%d: %w", i, err))
		}
	}
	if !rep.Complete() || rep.Succeeded != n {
		errs = append(errs, fmt.Errorf("report incomplete: %s", rep))
	}
	if r.info.Epoch != 1 {
		errs = append(errs, fmt.Errorf("coordinator ran at epoch %d, want 1", r.info.Epoch))
	}
	bad, err := checkTerminalOnce(r.jpath, r.m.Runs)
	errs = append(errs, err)
	// Every outcome the coordinator sees comes from one executor call, so
	// calls beyond one per run are duplicates.
	if dup := r.calls.Load() - int64(n); dup != 0 {
		errs = append(errs, fmt.Errorf("executor called %d times for %d runs", r.calls.Load(), n))
		bad = max(bad, int(max(dup, -dup)))
	}
	if r.reg != nil {
		if dup := r.reg.Counter("remote.runs_duplicate_total").Value(); dup != 0 {
			errs = append(errs, fmt.Errorf("coordinator counted %d duplicate outcomes", dup))
		}
	}
	return bad, "", errors.Join(errs...)
}

func (r *remoteInst) facts() *facts {
	return &facts{
		runs: r.m.Runs, journal: r.jpath, prov: r.eng.Prov,
		execCalls: r.calls.Load(), metrics: r.reg,
	}
}

func (r *remoteInst) close() { r.stopWorkers() }

// ---- sim engine: sim-summit-flaky ----

const (
	simNodes    = 128
	simWalltime = 2 * 3600.0
	simMaxAlloc = 200
)

type simInst struct {
	s    *spec
	m    *cheetah.Manifest
	eng  *savanna.SimEngine
	out  *savanna.CampaignOutcome
	sims []*hpcsim.Sim
}

func setupSim(dir string, s *spec, t *tracer) (instance, error) {
	m, err := cheetah.BuildManifest(s.campaign)
	if err != nil {
		return nil, err
	}
	si := &simInst{s: s, m: m}
	si.eng = &savanna.SimEngine{
		Durations:  savanna.TruncatedLogNormalDurations(60, 0.8, 1800),
		Seed:       s.seed,
		Failures:   hpcsim.FailureConfig{MTTF: 24 * 3600, RepairTime: 600},
		FaultModel: savanna.FlakyFaults(0.05),
		Resilience: &resilience.Config{
			Retry: resilience.RetryPolicy{MaxAttempts: 8, BaseDelay: 30 * time.Second},
			Seed:  s.seed,
		},
	}
	if t != nil {
		si.eng.Probe = func(sim *hpcsim.Sim, _ *hpcsim.Cluster) { si.sims = append(si.sims, sim) }
	}
	return si, nil
}

func (si *simInst) campaign(ctx context.Context) (resilience.CompletenessReport, error) {
	out, err := si.eng.RunToCompletion(si.m.Runs, simNodes, simWalltime, savanna.Dynamic, si.s.seed, simMaxAlloc)
	if err != nil {
		return resilience.CompletenessReport{}, err
	}
	si.out = out
	return out.Report, nil
}

func (si *simInst) check(rep resilience.CompletenessReport) (int, string, error) {
	n := len(si.m.Runs)
	if !rep.Complete() || rep.Succeeded != n || len(si.out.Failed) != 0 {
		return n - rep.Succeeded, "", fmt.Errorf("report incomplete: %s", rep)
	}
	return 0, simFingerprint(si.out), nil
}

// simFingerprint renders the simulated outputs that must repeat exactly
// for one seed: allocations, per-allocation completions, utilisation and
// the virtual makespan.
func simFingerprint(o *savanna.CampaignOutcome) string {
	return fmt.Sprintf("allocations=%d completed=%v mean_util=%.12g makespan_s=%.12g retries=%d",
		o.Allocations, o.PerAllocationCompleted, o.MeanUtilization, o.TotalWallSeconds, o.Report.Retries)
}

func (si *simInst) facts() *facts {
	return &facts{runs: si.m.Runs, sims: si.sims, simOut: si.out}
}

func (si *simInst) close() {}
