package savanna

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// Ledger writes one campaign's run transitions for every engine — local,
// simulated and remote. Each transition appends its attempt-journal record,
// and the other sinks are derived from the same facts: the resilience
// controller's tally, the terminal provenance record and status file, the
// engine's counters and histograms, the run span's end attributes and the
// event. The ledger also opens and closes the campaign: its span, the
// campaign.start / campaign.done / campaign.aborted events, the final
// journal sync and the completeness report.
//
// Engines keep what only they do (dispatch, lost, stolen and killed runs,
// scheduling, retry pacing) and pass the values that differ between them in
// an Entry.
type Ledger struct {
	// Campaign names the campaign in provenance ids and campaign events; the
	// simulated engine's campaigns are unnamed.
	Campaign string
	// RC is the campaign's resilience runtime (see NewController).
	RC *resilience.Controller
	// Prov, when non-nil, receives one provenance record per settled run,
	// carrying Memo's input digests.
	Prov *provenance.Store
	Memo *Memo
	// Seq numbers provenance records. It belongs to the engine so record
	// ids keep increasing across repeated campaigns on one engine.
	Seq *int64
	// Dir, when non-empty, is the Cheetah campaign directory whose per-run
	// status files mirror each run's state.
	Dir     string
	Events  *eventlog.Log
	Metrics LedgerMetrics

	span *telemetry.Span
}

// LedgerMetrics are the instruments the ledger updates. Each engine
// resolves them under its own metric names; a nil instrument swallows its
// updates.
type LedgerMetrics struct {
	Succeeded, Cached, Failed, Retries, Quarantined *telemetry.Counter
	// RunSeconds observes the elapsed time of succeeded, cached and failed
	// runs, Attempts the attempts a settled run consumed, and CPUSeconds and
	// MaxRSS its measured cost.
	RunSeconds, Attempts, CPUSeconds, MaxRSS *telemetry.Histogram
}

// Entry is what the engine knows about a run when it writes a transition.
type Entry struct {
	Run cheetah.Run
	// Point is the run's sweep-point key (PointKey).
	Point string
	// Attempt counts the attempts the run has consumed, this one included.
	Attempt int
	// Worker names the leaseholder; "" leaves the worker attribute out.
	Worker string
	// Span is the run's span: one per attempt on the simulated engine, one
	// per run elsewhere.
	Span *telemetry.Span
	// Seconds is the run's elapsed time and Usage its accumulated resource
	// usage, both zero when the run never ran.
	Seconds float64
	Usage   ResourceUsage
}

// NewController builds a campaign's resilience runtime from cfg. A nil cfg
// means one attempt per run and no quarantine, journal or stop condition.
func NewController(cfg *resilience.Config) *resilience.Controller {
	if cfg == nil {
		return resilience.NewController(resilience.Config{})
	}
	return resilience.NewController(*cfg)
}

// Open starts the campaign span under ctx and writes campaign.start with
// startAttrs. The span is returned for the engine's own events; Close ends
// it.
func (l *Ledger) Open(ctx context.Context, tr *telemetry.Tracer, name string, spanAttrs []telemetry.Attr, startAttrs ...telemetry.Attr) (context.Context, *telemetry.Span) {
	ctx, l.span = tr.Start(ctx, name, spanAttrs...)
	l.Events.Append(eventlog.Info, eventlog.CampaignStart, l.Campaign, l.span.ID(), startAttrs...)
	return ctx, l.span
}

// Close ends the campaign span with spanAttrs, writes campaign.done, makes
// the journal durable and returns the report over total runs.
func (l *Ledger) Close(total int, msg string, spanAttrs []telemetry.Attr, doneAttrs ...telemetry.Attr) resilience.CompletenessReport {
	l.span.End(spanAttrs...)
	l.Events.Append(eventlog.Info, eventlog.CampaignDone, msg, l.span.ID(), doneAttrs...)
	l.RC.Journal().Sync()
	return l.RC.Report(total)
}

// Abort latches the campaign aborted for reason. Only the call that trips
// the latch writes campaign.aborted.
func (l *Ledger) Abort(reason string) {
	if l.RC.Abort(reason) {
		l.aborted(reason)
	}
}

func (l *Ledger) aborted(reason string) {
	if l.Campaign == "" {
		l.Events.Append(eventlog.Error, eventlog.CampaignAborted, reason, l.span.ID())
		return
	}
	l.Events.Append(eventlog.Error, eventlog.CampaignAborted, reason, l.span.ID(),
		telemetry.String("campaign", l.Campaign))
}

// Started journals the start of an attempt; the first one marks the run's
// status file running.
func (l *Ledger) Started(e Entry) {
	if e.Attempt == 1 {
		l.status(e.Run, cheetah.RunRunning)
	}
	l.RC.JournalAttemptWorker(e.Run.ID, e.Point, e.Attempt, resilience.AttemptStart, e.Worker, "", nil)
}

// Succeeded settles a run whose last attempt succeeded; res holds the
// outputs the memo recorded.
func (l *Ledger) Succeeded(e Entry, res cas.ActionResult) {
	l.RC.Quarantine().NoteSuccess(e.Point)
	l.RC.JournalAttemptWorker(e.Run.ID, e.Point, e.Attempt, resilience.AttemptSuccess, e.Worker, "", nil)
	l.settle(e, resilience.OutcomeSucceeded, res, "")
}

// Cached settles a run the memo satisfied without executing it.
func (l *Ledger) Cached(e Entry, res cas.ActionResult) {
	l.RC.JournalAttemptWorker(e.Run.ID, e.Point, e.Attempt, resilience.AttemptCached, e.Worker, "", nil)
	l.settle(e, resilience.OutcomeCached, res, "")
}

// Failure journals one failed attempt and feeds the quarantine breaker.
// When the breaker side-lines the run's sweep point the run is settled as
// quarantined and Failure returns true; otherwise the engine goes on to
// Retry or Failed.
func (l *Ledger) Failure(e Entry, class resilience.Class, err error) bool {
	l.RC.JournalAttemptWorker(e.Run.ID, e.Point, e.Attempt, resilience.AttemptFailure, e.Worker, class, err)
	if !l.RC.Quarantine().NoteFailure(e.Point) {
		return false
	}
	l.Quarantined(e, class, err)
	return true
}

// Retry records that a failed attempt will run again after delay.
func (l *Ledger) Retry(e Entry, class resilience.Class, err error, delay time.Duration) {
	l.RC.NoteRetry()
	l.Metrics.Retries.Inc()
	if l.Events.Enabled(eventlog.Warn) { // formatting delay_ms allocates
		l.event(eventlog.Warn, eventlog.RunRetry, err.Error(), e, telemetry.Int("attempt", e.Attempt),
			telemetry.String("class", string(class)), telemetry.Int("delay_ms", int(delay.Milliseconds())))
	}
}

// Failed settles a run whose last attempt failed with err and will not be
// retried (Failure already journaled the attempt).
func (l *Ledger) Failed(e Entry, err error) {
	l.settle(e, resilience.OutcomeFailed, cas.ActionResult{}, err.Error())
}

// Quarantined settles a run whose sweep point is side-lined: cause is the
// failure that tripped the breaker, nil when the quarantine gate turned the
// run away. It returns the run's error message.
func (l *Ledger) Quarantined(e Entry, class resilience.Class, cause error) string {
	msg := "sweep point " + e.Point + " quarantined"
	if cause != nil {
		msg = cause.Error()
	}
	l.RC.JournalAttemptWorker(e.Run.ID, e.Point, e.Attempt, resilience.AttemptQuarantined, e.Worker, class, cause)
	l.settle(e, resilience.OutcomeQuarantined, cas.ActionResult{}, msg)
	return msg
}

// Skipped settles a run the campaign will never finish because it aborted
// or was cancelled. Its status file keeps the pending state, so both resume
// paths — the journal and the campaign directory — list it as still owed.
func (l *Ledger) Skipped(e Entry) {
	l.RC.JournalAttemptWorker(e.Run.ID, e.Point, e.Attempt, resilience.AttemptSkipped, e.Worker, "", nil)
	l.settle(e, resilience.OutcomeSkipped, cas.ActionResult{}, "")
}

// settle derives every sink of a terminal transition from its outcome
// once the journal record is written. msg is the failure message.
func (l *Ledger) settle(e Entry, outcome string, res cas.ActionResult, msg string) {
	status, dirStatus := provenance.StatusFailed, cheetah.RunFailed
	switch outcome {
	case resilience.OutcomeSucceeded, resilience.OutcomeCached:
		status, dirStatus = provenance.StatusSucceeded, cheetah.RunSucceeded
	case resilience.OutcomeSkipped:
		status = provenance.StatusSkipped
	}
	ran := outcome != resilience.OutcomeSkipped
	if ran {
		l.status(e.Run, dirStatus)
	}
	l.provenance(e, status, res, outcome == resilience.OutcomeCached)
	switch outcome {
	case resilience.OutcomeSucceeded, resilience.OutcomeCached, resilience.OutcomeFailed:
		l.Metrics.RunSeconds.Observe(e.Seconds)
	}
	if ran && e.Attempt > 0 {
		l.Metrics.Attempts.Observe(float64(e.Attempt))
	}
	if ran && !e.Usage.Zero() {
		l.resources(e)
	}
	if l.RC.NoteOutcome(outcome) {
		reason, _ := l.RC.Aborted()
		l.aborted(reason)
	}

	cached := telemetry.Bool("cached", outcome == resilience.OutcomeCached)
	st := telemetry.String("status", string(status))
	attempts := telemetry.Int("attempts", e.Attempt)
	switch outcome {
	case resilience.OutcomeSucceeded:
		l.Metrics.Succeeded.Inc()
		e.Span.End(cached, st, attempts)
		l.event(eventlog.Info, eventlog.RunSucceeded, "", e)
	case resilience.OutcomeCached:
		l.Metrics.Cached.Inc()
		e.Span.End(cached, st, attempts)
		l.event(eventlog.Info, eventlog.RunCached, "", e)
	case resilience.OutcomeFailed:
		l.Metrics.Failed.Inc()
		e.Span.End(cached, st, telemetry.String("error", msg), attempts)
		l.event(eventlog.Error, eventlog.RunFailed, msg, e, attempts)
	case resilience.OutcomeQuarantined:
		l.Metrics.Quarantined.Inc()
		l.Metrics.Failed.Inc()
		e.Span.End(cached, st, telemetry.Bool("quarantined", true), attempts)
		l.event(eventlog.Error, eventlog.RunQuarantined, msg, e, telemetry.String("point", e.Point), attempts)
	case resilience.OutcomeSkipped:
		e.Span.End(cached, st, attempts)
	}
}

// runAttrs are a run event's attributes: the run, its worker when named,
// then extra.
func runAttrs(e Entry, extra ...telemetry.Attr) []telemetry.Attr {
	attrs := make([]telemetry.Attr, 0, 2+len(extra))
	attrs = append(attrs, telemetry.String("run", e.Run.ID))
	if e.Worker != "" {
		attrs = append(attrs, telemetry.String("worker", e.Worker))
	}
	return append(attrs, extra...)
}

func (l *Ledger) event(lv eventlog.Level, typ, msg string, e Entry, extra ...telemetry.Attr) {
	if l.Events.Enabled(lv) {
		l.Events.Append(lv, typ, msg, e.Span.ID(), runAttrs(e, extra...)...)
	}
}

// resources surfaces a settled run's measured cost: span attributes, the
// cost histograms and a run.resources event.
func (l *Ledger) resources(e Entry) {
	cpu := e.Usage.CPUSeconds()
	e.Span.Annotate(telemetry.Float("cpu_s", cpu),
		telemetry.Float("cpu_user_s", e.Usage.CPUUserSeconds),
		telemetry.Float("cpu_sys_s", e.Usage.CPUSystemSeconds),
		telemetry.Int("max_rss_bytes", int(e.Usage.MaxRSSBytes)))
	l.Metrics.CPUSeconds.Observe(cpu)
	l.Metrics.MaxRSS.Observe(float64(e.Usage.MaxRSSBytes))
	l.event(eventlog.Info, eventlog.RunResources, "", e,
		telemetry.Float("cpu_s", cpu), telemetry.Int("max_rss_bytes", int(e.Usage.MaxRSSBytes)))
}

// status mirrors the run's state into its Cheetah status file.
func (l *Ledger) status(run cheetah.Run, st cheetah.RunStatus) {
	if l.Dir != "" {
		cheetah.SetRunStatus(l.Dir, run.ID, st)
	}
}

// provenance appends the settled run's record: the memo's input digests,
// the recorded output digests, a cached annotation and the measured cost.
func (l *Ledger) provenance(e Entry, status provenance.Status, res cas.ActionResult, cached bool) {
	if l.Prov == nil {
		return
	}
	end := time.Now()
	rec := provenance.Record{
		ID:         fmt.Sprintf("%s/%s#%d", l.Campaign, e.Run.ID, atomic.AddInt64(l.Seq, 1)),
		Component:  "savanna-run",
		Start:      end.Add(-time.Duration(e.Seconds * float64(time.Second))),
		End:        end,
		Status:     status,
		CampaignID: l.Campaign,
		SweepPoint: e.Run.Params,
		Inputs:     l.Memo.provenanceInputs(),
		Outputs:    ProvenanceOutputs(res),
	}
	if cached {
		rec.Annotations = append(rec.Annotations, provenance.Annotation{
			Key: "cached", Value: "true", Sensitivity: provenance.Public,
		})
	}
	if !e.Usage.Zero() {
		rec.Resources = &provenance.Resources{
			CPUUserSeconds:   e.Usage.CPUUserSeconds,
			CPUSystemSeconds: e.Usage.CPUSystemSeconds,
			MaxRSSBytes:      e.Usage.MaxRSSBytes,
		}
	}
	l.Prov.Append(rec)
}
