// Package savanna reimplements the execution half of the paper's
// Cheetah/Savanna suite (Section IV): it consumes a campaign manifest (the
// interoperability layer) and runs every enumerated run, either in-process
// on real goroutine workers or on the hpcsim simulated cluster at Summit
// scale.
//
// Two scheduling disciplines are provided because their contrast is the
// paper's Fig. 6/7 result: the original workflow's set-synchronized
// submission ("all experiments in a set must be complete before the next
// set is run — straggler processes can severely limit performance") versus
// Savanna's dynamic pilot resource manager, which "dynamically schedules
// and tracks runs on the allocated nodes, no longer requiring synchronizing
// runs and leading to better resource utilization".
package savanna

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// Executor runs one campaign run in-process.
type Executor interface {
	// Execute performs the run; a non-nil error marks it failed. Executors
	// classify their failures with the resilience.Mark* wrappers; an
	// unmarked error is treated as transient.
	Execute(run cheetah.Run) error
}

// ContextExecutor is an Executor that honours cancellation: the engine
// prefers ExecuteContext when available, passing a context that carries the
// per-run deadline and the campaign's cancellation. Executors that spawn
// processes must kill them when the context ends — a wedged child must not
// hang its worker forever.
type ContextExecutor interface {
	Executor
	ExecuteContext(ctx context.Context, run cheetah.Run) error
}

// PointKey renders a run's sweep point as a stable string — the quarantine
// identity shared by every attempt at that parameter combination.
func PointKey(run cheetah.Run) string {
	if len(run.Params) == 0 {
		return run.ID
	}
	keys := make([]string, 0, len(run.Params))
	for k := range run.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(run.Params[k])
	}
	return b.String()
}

// FuncRegistry maps app names to Go functions — the in-process executor
// backend ("this design allows us to import existing workflow tools" —
// here, any Go callable becomes an app).
type FuncRegistry struct {
	mu   sync.RWMutex
	apps map[string]func(params map[string]string) error
	app  string
}

// NewFuncRegistry builds a registry bound to the campaign's app name.
func NewFuncRegistry(app string) *FuncRegistry {
	return &FuncRegistry{apps: map[string]func(map[string]string) error{}, app: app}
}

// Register adds an app implementation.
func (r *FuncRegistry) Register(name string, fn func(params map[string]string) error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.apps[name] = fn
}

// Execute implements Executor.
func (r *FuncRegistry) Execute(run cheetah.Run) error {
	r.mu.RLock()
	fn := r.apps[r.app]
	r.mu.RUnlock()
	if fn == nil {
		// No amount of retrying conjures an implementation.
		return resilience.MarkPermanent(fmt.Errorf("savanna: no implementation registered for app %q", r.app))
	}
	return fn(run.Params)
}

// RunResult is the outcome of one executed run.
type RunResult struct {
	Run     cheetah.Run
	Status  provenance.Status
	Seconds float64
	Err     string
	// Cached marks a run satisfied from the memo's action cache — nothing
	// was executed.
	Cached bool
	// Attempts is how many executions the run consumed (1 for first-try
	// success, 0 for cached or skipped runs).
	Attempts int
	// Quarantined marks a run terminally side-lined by the circuit breaker:
	// its sweep point kept failing and was removed from the retry budget.
	Quarantined bool
}

// LocalEngine executes manifests in-process with a bounded worker pool (the
// "nodes" of a local pilot).
type LocalEngine struct {
	// Executor performs each run.
	Executor Executor
	// Workers bounds concurrency (≥1).
	Workers int
	// Prov, when non-nil, receives a provenance record per run, stamped
	// with the campaign id — the campaign-knowledge tier in action.
	Prov *provenance.Store
	// CampaignDir, when non-empty, receives status updates in the Cheetah
	// directory schema.
	CampaignDir string
	// Resilience, when non-nil, arms the full fault-tolerance stack:
	// classified retries with decorrelated-jitter backoff, per-run
	// deadlines, sweep-point quarantine, the journaled attempt log that
	// fairctl resume replays, and the campaign-level stop condition.
	// Without it every run gets exactly one attempt.
	Resilience *resilience.Config
	// Memo, when non-nil, memoizes whole runs: a run whose (component
	// digest, sweep point, input digests) recipe is already cached is
	// skipped entirely, and successful executions are recorded for the
	// next campaign re-run or resume.
	Memo *Memo
	// Tracer, when non-nil, records one "savanna.campaign" span per
	// RunAll/RunSets call and one "savanna.run" span per run under it
	// (annotated cached/failed), using the tracer's clock.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, receives the engine instruments:
	// savanna.runs_executed_total / runs_cached_total / runs_failed_total
	// and the savanna.run_seconds histogram. Both telemetry fields left nil
	// cost the engine only nil checks.
	Metrics *telemetry.Registry
	// Events, when non-nil, journals the campaign's life cycle —
	// campaign.start/done, run.start and the terminal run.succeeded /
	// run.cached / run.failed — each correlated to its span, which is what
	// the monitor consumes for progress, stragglers and stalls.
	Events *eventlog.Log

	// attempt numbers provenance records so resubmitted runs get fresh IDs
	// (provenance is append-only; each attempt is its own record).
	attempt int64

	// telOnce resolves the instruments once so executeOne never touches the
	// registry lock.
	telOnce sync.Once
	metrics LedgerMetrics
}

// open starts one campaign's ledger, its span and its campaign.start event.
// The engine's instruments are resolved once (no-ops when Metrics is nil:
// nil instruments swallow updates).
func (e *LocalEngine) open(ctx context.Context, campaign, discipline string, runs int) (context.Context, *Ledger) {
	e.telOnce.Do(func() {
		e.metrics = LedgerMetrics{
			Succeeded:   e.Metrics.Counter("savanna.runs_executed_total"),
			Cached:      e.Metrics.Counter("savanna.runs_cached_total"),
			Failed:      e.Metrics.Counter("savanna.runs_failed_total"),
			Retries:     e.Metrics.Counter("savanna.retries_total"),
			Quarantined: e.Metrics.Counter("savanna.quarantined_total"),
			RunSeconds:  e.Metrics.Histogram("savanna.run_seconds", nil),
			Attempts:    e.Metrics.Histogram("savanna.run_attempts", []float64{1, 2, 3, 5, 8, 13}),
			CPUSeconds:  e.Metrics.Histogram("savanna.run_cpu_seconds", nil),
			MaxRSS:      e.Metrics.Histogram("savanna.run_max_rss_bytes", RSSBuckets),
		}
	})
	l := &Ledger{
		Campaign: campaign, RC: NewController(e.Resilience),
		Prov: e.Prov, Memo: e.Memo, Seq: &e.attempt, Dir: e.CampaignDir,
		Events: e.Events, Metrics: e.metrics,
	}
	ctx, _ = l.Open(ctx, e.Tracer, "savanna.campaign",
		[]telemetry.Attr{telemetry.String("campaign", campaign),
			telemetry.String("discipline", discipline), telemetry.Int("runs", runs)},
		telemetry.String("campaign", campaign), telemetry.Int("runs", runs))
	return ctx, l
}

// validate checks the engine configuration.
func (e *LocalEngine) validate() error {
	if e.Executor == nil {
		return fmt.Errorf("savanna: engine needs an executor")
	}
	if e.Workers < 1 {
		return fmt.Errorf("savanna: engine needs ≥1 worker")
	}
	return nil
}

// RunAll executes the given runs with dynamic scheduling: workers pull the
// next run as soon as they free up. Results are returned in the input
// order.
func (e *LocalEngine) RunAll(campaign string, runs []cheetah.Run) ([]RunResult, error) {
	results, _, err := e.RunCampaign(context.Background(), campaign, runs)
	return results, err
}

// RunCampaign is RunAll with the full fault-tolerance contract surfaced: the
// context cancels the campaign (in-flight runs are killed, undispatched runs
// journal as skipped — exactly the state "fairctl resume" restarts from),
// and the returned CompletenessReport accounts for every run whether or not
// the campaign ran to the end.
func (e *LocalEngine) RunCampaign(ctx context.Context, campaign string, runs []cheetah.Run) ([]RunResult, resilience.CompletenessReport, error) {
	if err := e.validate(); err != nil {
		return nil, resilience.CompletenessReport{}, err
	}
	ctx, l := e.open(ctx, campaign, "dynamic", len(runs))
	results := make([]RunResult, len(runs))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < e.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i] = e.executeOne(ctx, l, runs[i])
			}
		}()
	}
	for i := range runs {
		if _, aborted := l.RC.Aborted(); aborted || ctx.Err() != nil {
			results[i] = skipOne(l, runs[i])
			continue
		}
		work <- i
	}
	close(work)
	wg.Wait()
	report := l.Close(len(runs), campaign, nil, telemetry.String("campaign", campaign))
	return results, report, nil
}

// RunSets executes runs in barrier-synchronized sets of setSize — the
// baseline discipline. All runs of a set must finish before the next set
// starts, so one straggler idles every other worker.
func (e *LocalEngine) RunSets(campaign string, runs []cheetah.Run, setSize int) ([]RunResult, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	if setSize < 1 {
		return nil, fmt.Errorf("savanna: set size must be ≥1")
	}
	ctx, l := e.open(context.Background(), campaign, "set-synchronized", len(runs))
	results := make([]RunResult, len(runs))
	for lo := 0; lo < len(runs); lo += setSize {
		hi := lo + setSize
		if hi > len(runs) {
			hi = len(runs)
		}
		var wg sync.WaitGroup
		sem := make(chan struct{}, e.Workers)
		for i := lo; i < hi; i++ {
			if _, aborted := l.RC.Aborted(); aborted {
				results[i] = skipOne(l, runs[i])
				continue
			}
			i := i
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				results[i] = e.executeOne(ctx, l, runs[i])
			}()
		}
		wg.Wait() // the set barrier
	}
	l.Close(len(runs), campaign, nil, telemetry.String("campaign", campaign))
	return results, nil
}

// execute performs one attempt, applying the per-run deadline and routing
// through ExecuteContext when the executor supports cancellation.
func (e *LocalEngine) execute(ctx context.Context, run cheetah.Run, rc *resilience.Controller) error {
	if d := rc.RunDeadline(); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if cx, ok := e.Executor.(ContextExecutor); ok {
		return cx.ExecuteContext(ctx, run)
	}
	return e.Executor.Execute(run)
}

// skipOne records a run the campaign never dispatched (abort latch tripped
// or the campaign context was cancelled first).
func skipOne(l *Ledger, run cheetah.Run) RunResult {
	l.Skipped(Entry{Run: run, Point: PointKey(run)})
	return RunResult{Run: run, Status: provenance.StatusSkipped}
}

func (e *LocalEngine) executeOne(ctx context.Context, l *Ledger, run cheetah.Run) RunResult {
	start := time.Now()
	runCtx, span := e.Tracer.Start(ctx, "savanna.run", telemetry.String("run", run.ID))
	e.Events.Append(eventlog.Info, eventlog.RunStart, "", span.ID(), telemetry.String("run", run.ID))
	// Per-run resource sink: the executor accumulates each attempt's rusage
	// into it, and the ledger carries the settled total to the span, the
	// cost histograms and the provenance record.
	var usage ResourceUsage
	runCtx = WithResourceSink(runCtx, &usage)
	en := Entry{Run: run, Point: PointKey(run), Span: span}

	// Memoized skip path: an unchanged (component, sweep point, inputs)
	// recipe means this run's outputs already exist — record it succeeded
	// without executing anything.
	if cached, ok := e.Memo.Lookup(run); ok {
		en.Seconds = time.Since(start).Seconds()
		l.Cached(en, cached)
		return RunResult{Run: run, Status: provenance.StatusSucceeded, Seconds: en.Seconds, Cached: true}
	}

	// Quarantine gate: a sweep point already side-lined (by an earlier run at
	// the same point, or restored from a resumed journal) fails without
	// spending an attempt.
	if !l.RC.Quarantine().Allow(en.Point) {
		msg := l.Quarantined(en, "", nil)
		return RunResult{Run: run, Status: provenance.StatusFailed, Err: msg, Quarantined: true}
	}

	var (
		err      error
		recorded cas.ActionResult
		prev     time.Duration
	)
	for {
		en.Attempt++
		l.Started(en)
		err = e.execute(runCtx, run, l.RC)
		if err == nil {
			recorded, err = e.Memo.Record(run) // a failed record is a failed run: its reuse contract is broken
		}
		if err == nil {
			break
		}
		class := resilience.Classify(err)
		en.Seconds, en.Usage = time.Since(start).Seconds(), usage
		if l.Failure(en, class, err) {
			return RunResult{Run: run, Status: provenance.StatusFailed, Err: err.Error(),
				Attempts: en.Attempt, Quarantined: true}
		}
		if !class.Retryable() || en.Attempt >= l.RC.Attempts() || ctx.Err() != nil {
			break
		}
		prev = l.RC.Backoff(prev)
		l.Retry(en, class, err, prev)
		// The backoff sleep gets its own child span so critical-path analysis
		// can attribute this dead time to "retry" rather than lumping it into
		// the run's exec time.
		_, waitSpan := e.Tracer.Start(runCtx, "savanna.retry_wait",
			telemetry.String("run", run.ID), telemetry.Int("attempt", en.Attempt),
			telemetry.Int("delay_ms", int(prev.Milliseconds())))
		sleepErr := l.RC.Sleep(ctx, prev)
		waitSpan.End()
		if sleepErr != nil {
			break // campaign cancelled mid-backoff; err keeps the last failure
		}
	}
	en.Seconds, en.Usage = time.Since(start).Seconds(), usage
	res := RunResult{Run: run, Status: provenance.StatusSucceeded, Seconds: en.Seconds, Attempts: en.Attempt}
	if err != nil {
		l.Failed(en, err)
		res.Status, res.Err = provenance.StatusFailed, err.Error()
		return res
	}
	l.Succeeded(en, recorded)
	return res
}

// Remaining filters a manifest's runs to the resubmission set: runs whose
// *latest* provenance record is not a success. "Users may simply re-submit a
// partially completed SweepGroup of parameters to continue execution."
// Last-record-wins matters: a run that succeeded once but whose most recent
// re-execution failed must resurface — its published outputs no longer match
// its recorded provenance.
func Remaining(m *cheetah.Manifest, prov *provenance.Store) []cheetah.Run {
	last := map[string]provenance.Status{}
	for _, rec := range prov.Select(provenance.Query{CampaignID: m.Campaign.Name}) {
		// Record IDs are "<campaign>/<runID>#<attempt>"; strip the attempt.
		// Select returns insertion order, so later records overwrite earlier.
		id := rec.ID
		if i := strings.LastIndexByte(id, '#'); i >= 0 {
			id = id[:i]
		}
		last[id] = rec.Status
	}
	var out []cheetah.Run
	for _, run := range m.Runs {
		if last[m.Campaign.Name+"/"+run.ID] != provenance.StatusSucceeded {
			out = append(out, run)
		}
	}
	return out
}
