package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

var updateGolden = flag.Bool("update", false, "rewrite the ledger equivalence fixtures under testdata/ledger")

// ledgerSnapshot is what one campaign leaves in the sinks every run
// transition writes to, one line per record (see the savanna package's
// equivalence test, which this mirrors for the distributed engine). Only
// timestamps and span ids are normalised away: a scripted worker reports
// fixed durations, so everything else is deterministic.
type ledgerSnapshot struct {
	Results    []string                      `json:"results"`
	Report     resilience.CompletenessReport `json:"report"`
	Journal    []string                      `json:"journal"`
	Provenance []string                      `json:"provenance"`
	Events     []string                      `json:"events"`
	Metrics    []string                      `json:"metrics"`
	Status     map[string]string             `json:"status"`
}

func jsonLine(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func snapshotLedger(t *testing.T, results []savanna.RunResult, report resilience.CompletenessReport,
	jpath string, prov *provenance.Store, events *eventlog.Log, reg *telemetry.Registry, cdir string, runs []cheetah.Run) ledgerSnapshot {
	t.Helper()
	snap := ledgerSnapshot{Report: report, Status: map[string]string{}}
	for _, r := range results {
		snap.Results = append(snap.Results, jsonLine(t, r))
	}
	recs, err := resilience.ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		r.Time = time.Time{}
		snap.Journal = append(snap.Journal, jsonLine(t, r))
	}
	for _, r := range prov.Select(provenance.Query{}) {
		elapsed := r.End.After(r.Start)
		r.Start, r.End = time.Time{}, time.Time{}
		snap.Provenance = append(snap.Provenance, fmt.Sprintf("elapsed=%v %s", elapsed, jsonLine(t, r)))
	}
	for _, ev := range events.Snapshot() {
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s", ev.Level, ev.Type)
		if ev.Msg != "" {
			fmt.Fprintf(&b, " %q", ev.Msg)
		}
		for _, a := range ev.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		snap.Events = append(snap.Events, b.String())
	}
	m := reg.Snapshot()
	for _, c := range m.Counters {
		snap.Metrics = append(snap.Metrics, fmt.Sprintf("counter %s = %d", c.Name, c.Value))
	}
	for _, g := range m.Gauges {
		snap.Metrics = append(snap.Metrics, fmt.Sprintf("gauge %s = %g", g.Name, g.Value))
	}
	for _, h := range m.Histograms {
		snap.Metrics = append(snap.Metrics, fmt.Sprintf("histogram %s count=%d sum=%g counts=%v inf=%d",
			h.Name, h.Count, h.Sum, h.Counts, h.Inf))
	}
	for _, r := range runs {
		b, err := os.ReadFile(filepath.Join(cdir, r.ID, "status"))
		if err != nil {
			t.Fatal(err)
		}
		snap.Status[r.ID] = string(b)
	}
	return snap
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

// scripted is a worker the test speaks remote.v1 for by hand, so every
// message reaches the coordinator in an order the test chooses.
type scripted struct {
	t     *testing.T
	c     *conn
	name  string
	lease int64
	held  []cheetah.Run
}

func joinScripted(t *testing.T, nc net.Conn, name string, slots int) *scripted {
	t.Helper()
	c, err := newConn(nc, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.send(OpHello, name, 0, Hello{Slots: slots}); err != nil {
		t.Fatal(err)
	}
	g := expectOp(t, c, OpLeaseGrant)
	return &scripted{t: t, c: c, name: g.Worker, lease: g.Lease}
}

// read receives one message, adding any assigned runs to held.
func (s *scripted) read() msg {
	s.t.Helper()
	m, err := s.c.recv(5 * time.Second)
	if err != nil {
		s.t.Fatalf("%s: %v", s.name, err)
	}
	if m.Op == OpAssign {
		a, err := decodeBody[Assignment](m)
		if err != nil {
			s.t.Fatal(err)
		}
		s.held = append(s.held, a.Runs...)
	}
	return m
}

// report sends one outcome and reads up to its ack.
func (s *scripted) report(out Outcome) {
	s.t.Helper()
	if err := s.c.send(OpResult, s.name, s.lease, out); err != nil {
		s.t.Fatal(err)
	}
	for {
		switch m := s.read(); m.Op {
		case OpResultAck:
			return
		case OpAssign:
		default:
			s.t.Fatalf("%s: got %q before the ack of %s", s.name, m.Op, out.RunID)
		}
	}
}

// serve answers every assigned run with outcome (n counts the times this
// worker saw the run; the run id is filled in) until the coordinator
// drains it.
func (s *scripted) serve(outcome func(run cheetah.Run, n int) Outcome) {
	s.t.Helper()
	seen := map[string]int{}
	for {
		if len(s.held) == 0 {
			switch m := s.read(); m.Op {
			case OpDrain:
				return
			case OpAssign:
			default:
				s.t.Fatalf("%s: unexpected %q", s.name, m.Op)
			}
			continue
		}
		run := s.held[0]
		s.held = s.held[1:]
		seen[run.ID]++
		out := outcome(run, seen[run.ID])
		out.RunID = run.ID
		s.report(out)
	}
}

// finishRun reports one held run by id.
func (s *scripted) finishRun(id string, out Outcome) {
	s.t.Helper()
	for i, r := range s.held {
		if r.ID == id {
			s.held = append(s.held[:i], s.held[i+1:]...)
			out.RunID = id
			s.report(out)
			return
		}
	}
	s.t.Fatalf("%s does not hold %s", s.name, id)
}

// okOutcome is an executed attempt that succeeded; every executed attempt
// reports the same duration and resource usage.
var okOutcome = Outcome{OK: true, Seconds: 0.5, CPUUserSeconds: 0.25, CPUSystemSeconds: 0.125, MaxRSSBytes: 1 << 20}

// failOutcome is an executed attempt that failed with err.
func failOutcome(err error) Outcome {
	out := okOutcome
	out.OK = false
	out.Err = err.Error()
	out.Class = string(resilience.Classify(err))
	return out
}

// remoteLedgerScenario is one row of the distributed equivalence table.
// Runs are indexed 0..runs-1.
type remoteLedgerScenario struct {
	name  string
	runs  int
	batch int
	tune  func(*resilience.Config)
	gate  []int // runs whose sweep point is quarantined before the campaign
	// cached lists runs the coordinator's memo already holds.
	cached []int
	// outcome answers run i's n-th assignment on a single worker; nil
	// means drive drives the campaign instead.
	outcome func(i, n int) Outcome
	drive   func(t *testing.T, conns []net.Conn, runs []cheetah.Run, events <-chan eventlog.Event)
}

func remoteLedgerScenarios() []remoteLedgerScenario {
	ok := func(i, n int) Outcome { return okOutcome }
	permanent := func(i, n int) Outcome {
		if i == 0 {
			return failOutcome(resilience.MarkPermanent(errors.New("bad parameters")))
		}
		return okOutcome
	}
	return []remoteLedgerScenario{
		{name: "success", runs: 2, outcome: ok},
		{name: "cached", runs: 3, cached: []int{0}, outcome: func(i, n int) Outcome {
			if i == 1 {
				return Outcome{OK: true, Cached: true, Seconds: 0.25,
					Outputs: map[string]string{"result": string(cas.HashBytes([]byte("cached output")))}}
			}
			return okOutcome
		}},
		{name: "retry", runs: 1, outcome: func(i, n int) Outcome {
			if n == 1 {
				return failOutcome(resilience.MarkTransient(errors.New("flaky once")))
			}
			return okOutcome
		}},
		{name: "permanent", runs: 2, outcome: permanent},
		{name: "quarantine", runs: 2,
			tune: func(c *resilience.Config) { c.QuarantineAfter = 2; c.Retry.MaxAttempts = 5 },
			outcome: func(i, n int) Outcome {
				if i == 0 {
					return failOutcome(resilience.MarkTransient(fmt.Errorf("poisoned attempt %d", n)))
				}
				return okOutcome
			}},
		{name: "quarantine-gate", runs: 2, gate: []int{0},
			tune:    func(c *resilience.Config) { c.QuarantineAfter = 1 },
			outcome: ok},
		{name: "stop-skip", runs: 3, outcome: permanent,
			tune: func(c *resilience.Config) { c.Stop = resilience.StopPolicy{MaxFailureFraction: 0.5, MinCompleted: 1} }},
		{name: "lost", runs: 1, drive: func(t *testing.T, conns []net.Conn, runs []cheetah.Run, events <-chan eventlog.Event) {
			// w0 takes the run and its connection dies; the run is journaled
			// lost and re-dispatched to w1, which joins only afterwards.
			w0 := joinScripted(t, conns[0], "w0", 1)
			w0.read()
			w0.c.close()
			waitEvent(t, events, eventlog.RunLost)
			w1 := joinScripted(t, conns[1], "w1", 1)
			w1.serve(func(cheetah.Run, int) Outcome { return okOutcome })
			w1.c.close()
		}},
		{name: "stolen", runs: 4, batch: 4, drive: func(t *testing.T, conns []net.Conn, runs []cheetah.Run, events <-chan eventlog.Event) {
			// w0 holds the whole batch when idle w1 joins; the coordinator
			// steals half of w0's queue for w1.
			w0 := joinScripted(t, conns[0], "w0", 1)
			w0.read()
			w1 := joinScripted(t, conns[1], "w1", 1)
			m := w0.read()
			if m.Op != OpSteal {
				t.Fatalf("w0 got %q, want a steal", m.Op)
			}
			st, err := decodeBody[Steal](m)
			if err != nil {
				t.Fatal(err)
			}
			var given []string
			for len(given) < st.N {
				last := w0.held[len(w0.held)-1]
				w0.held = w0.held[:len(w0.held)-1]
				given = append(given, last.ID)
			}
			if err := w0.c.send(OpStolen, w0.name, w0.lease, Stolen{RunIDs: given}); err != nil {
				t.Fatal(err)
			}
			w1.read()
			// Alternate results so neither worker goes idle while the other
			// still queues more runs than slots, which would steal again.
			w0.finishRun(runs[0].ID, okOutcome)
			w1.finishRun(runs[3].ID, okOutcome)
			w0.finishRun(runs[1].ID, okOutcome)
			w1.finishRun(runs[2].ID, okOutcome)
			for _, w := range []*scripted{w0, w1} {
				if m := w.read(); m.Op != OpDrain {
					t.Fatalf("%s got %q, want drain", w.name, m.Op)
				}
				w.c.close()
				waitEvent(t, events, eventlog.WorkerLeave)
			}
		}},
	}
}

// waitEvent blocks until the coordinator journals an event of type typ.
func waitEvent(t *testing.T, events <-chan eventlog.Event, typ string) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.Type == typ {
				return
			}
		case <-timeout:
			t.Fatalf("no %s event", typ)
		}
	}
}

func ledgerCampaign(n int) cheetah.Campaign {
	values := make([]string, n)
	for i := range values {
		values[i] = strconv.Itoa(i)
	}
	return cheetah.Campaign{
		Name: "test", App: "work",
		Groups: []cheetah.SweepGroup{{
			Name: "g", Nodes: 1, WalltimeMinutes: 60,
			Sweeps: []cheetah.Sweep{{Name: "s", Parameters: []cheetah.Parameter{{Name: "i", Values: values}}}},
		}},
	}
}

// TestLedgerEquivalenceRemote pins what the distributed engine writes for
// each run transition, driving the coordinator with scripted workers.
func TestLedgerEquivalenceRemote(t *testing.T) {
	for _, sc := range remoteLedgerScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := cheetah.BuildManifest(ledgerCampaign(sc.runs))
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
			store, err := cas.Open(filepath.Join(dir, "cas"))
			if err != nil {
				t.Fatal(err)
			}
			cache, err := cas.OpenActionCache(filepath.Join(dir, "cas", "actions.json"), store)
			if err != nil {
				t.Fatal(err)
			}
			memo := &savanna.Memo{Cache: cache, ComponentDigest: "sha256:model-v1"}
			for _, i := range sc.cached {
				if _, err := memo.Record(m.Runs[i]); err != nil {
					t.Fatal(err)
				}
			}
			rcfg := &resilience.Config{
				Retry:   resilience.RetryPolicy{MaxAttempts: 3},
				Journal: journal,
				Seed:    7,
			}
			if sc.tune != nil {
				sc.tune(rcfg)
			}
			for _, i := range sc.gate {
				rcfg.Restore = append(rcfg.Restore, savanna.PointKey(m.Runs[i]))
			}

			var workers, coords []net.Conn
			for i := 0; i < 2; i++ {
				w, c := net.Pipe()
				workers, coords = append(workers, w), append(coords, c)
			}
			batch := sc.batch
			if batch == 0 {
				batch = 1 // one run in flight: results and dispatches interleave in one order
			}
			prov := provenance.NewStore()
			events := eventlog.NewLog()
			seen := make(chan eventlog.Event, 256)
			events.Subscribe(func(ev eventlog.Event) { seen <- ev })
			reg := telemetry.NewRegistry()
			eng := &Engine{
				Listener: newPipeListener(coords...), BatchSize: batch, LeaseTTL: time.Minute,
				Prov: prov, CampaignDir: cdir, Resilience: rcfg, Memo: memo,
				Tracer: telemetry.NewTracer(), Metrics: reg, Events: events,
			}
			type campaignResult struct {
				results []savanna.RunResult
				report  resilience.CompletenessReport
				err     error
			}
			done := make(chan campaignResult, 1)
			go func() {
				results, report, err := eng.RunCampaign(context.Background(), m.Campaign.Name, m.Runs)
				done <- campaignResult{results, report, err}
			}()

			idx := map[string]int{}
			for i, r := range m.Runs {
				idx[r.ID] = i
			}
			if sc.drive != nil {
				sc.drive(t, workers, m.Runs, seen)
			} else {
				w := joinScripted(t, workers[0], "w0", 1)
				w.serve(func(run cheetah.Run, n int) Outcome { return sc.outcome(idx[run.ID], n) })
				w.c.close()
			}
			for _, c := range workers {
				c.Close()
			}
			r := <-done
			if r.err != nil {
				t.Fatal(r.err)
			}
			if err := journal.Close(); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "remote-"+sc.name,
				snapshotLedger(t, r.results, r.report, jpath, prov, events, reg, cdir, m.Runs))
		})
	}
}
