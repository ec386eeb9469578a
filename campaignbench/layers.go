package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"fairflow/internal/cas"
	"fairflow/internal/cheetah"
	"fairflow/internal/provenance"
	"fairflow/internal/remote"
	"fairflow/internal/resilience"
	"fairflow/internal/savanna"
	"fairflow/internal/stream"
	"fairflow/internal/telemetry"
)

// journalMix is the measured campaign's attempt journal.
type journalMix struct {
	recs   []resilience.AttemptRecord
	byKind map[string]int
	bytes  int
}

func readJournalMix(f *facts) (journalMix, error) {
	mix := journalMix{byKind: map[string]int{}}
	if f.journal == "" {
		return mix, nil
	}
	recs, err := resilience.ReadJournalFile(f.journal)
	if err != nil {
		return mix, err
	}
	mix.recs = recs
	for _, r := range mix.recs {
		mix.byKind[r.Event]++
		line, err := json.Marshal(r) // the bytes Journal.Append wrote for it
		if err != nil {
			return mix, err
		}
		mix.bytes += len(line) + 1
	}
	return mix, nil
}

// replay calls each layer's public functions with the call mix and sizes
// the measured campaign reached — taken from its journal, provenance store,
// cache and conn recordings, never from constants — and times every call.
// It works in dir and leaves the campaign's own artifacts as it found
// them, apart from rewriting status files to the values they already hold
// and reading the campaign's cache.
func replay(dir string, f *facts, mix journalMix, wire [][]byte, t *tracer) error {
	defer t.begin("replay")()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	byID := make(map[string]cheetah.Run, len(f.runs))
	for _, r := range f.runs {
		byID[r.ID] = r
	}

	if len(mix.recs) > 0 {
		j, err := resilience.OpenJournal(filepath.Join(dir, "attempts.jsonl"))
		if err != nil {
			return err
		}
		j.SetAutoSync(autoSync)
		for _, r := range mix.recs {
			if err := t.timed("replay.journal.append", func() error { return j.Append(r) }); err != nil {
				j.Close()
				return err
			}
		}
		if err := j.Close(); err != nil {
			return err
		}
	}

	// The engine writes a run's status when its first attempt starts and
	// when it reaches a terminal state; the journal records both moments.
	if f.campaignDir != "" {
		for _, r := range mix.recs {
			var st cheetah.RunStatus
			switch r.Event {
			case resilience.AttemptStart:
				if r.Attempt != 1 {
					continue
				}
				st = cheetah.RunRunning
			case resilience.AttemptSuccess:
				st = cheetah.RunSucceeded
			default:
				continue
			}
			if err := t.timed("replay.status.write", func() error {
				return cheetah.SetRunStatus(f.campaignDir, r.Run, st)
			}); err != nil {
				return err
			}
		}
	}

	if f.prov != nil {
		store := provenance.NewStore()
		for _, r := range f.prov.Select(provenance.Query{}) {
			if err := t.timed("replay.prov.append", func() error { return store.Append(r) }); err != nil {
				return err
			}
		}
	}

	if f.memo != nil {
		if err := replayMemo(dir, f, mix, byID, t); err != nil {
			return err
		}
	}
	return replayCodec(wire, t)
}

// replayMemo replays the memo and CAS calls the campaign made: one lookup
// miss per first start, and per executed run one record and one put per
// output. With each executed run it also replays the read path a
// re-submission would take against the cache the campaign built: one
// lookup hit and one materialize per recorded output.
func replayMemo(dir string, f *facts, mix journalMix, byID map[string]cheetah.Run, t *tracer) error {
	store, err := cas.Open(filepath.Join(dir, "cas"))
	if err != nil {
		return err
	}
	cache, err := cas.OpenActionCache(filepath.Join(dir, "cas", "actions.json"), store)
	if err != nil {
		return err
	}
	record := &savanna.Memo{Cache: cache, ComponentDigest: f.memo.ComponentDigest, InputDigests: f.memo.InputDigests,
		Collect: func(run cheetah.Run) (map[string]string, error) {
			return map[string]string{"out": f.outPath(run.ID)}, nil
		}}
	putStore, err := cas.Open(filepath.Join(dir, "cas-put"))
	if err != nil {
		return err
	}
	for i, r := range mix.recs {
		run, ok := byID[r.Run]
		if !ok {
			continue
		}
		switch {
		case r.Event == resilience.AttemptStart && r.Attempt == 1:
			miss := cheetah.Run{ID: run.ID, Params: map[string]string{"replay": "miss"}}
			for k, v := range run.Params {
				miss.Params[k] = v
			}
			t.timed("replay.memo.miss", func() error { f.memo.Lookup(miss); return nil })
		case r.Event == resilience.AttemptSuccess:
			var res cas.ActionResult
			if err := t.timed("replay.memo.lookup", func() error {
				if res, ok = f.memo.Lookup(run); !ok {
					return fmt.Errorf("replay: executed run %s is not cached", run.ID)
				}
				return nil
			}); err != nil {
				return err
			}
			if err := t.timed("replay.memo.record", func() error { _, err := record.Record(run); return err }); err != nil {
				return err
			}
			for name, d := range res.Outputs {
				dst := filepath.Join(dir, "materialized", fmt.Sprint(i), name)
				if err := t.timed("replay.cas.materialize", func() error { return f.memo.Cache.Store().Materialize(d, dst) }); err != nil {
					return err
				}
				if err := t.timed("replay.cas.put", func() error { _, _, err := putStore.PutFile(dst); return err }); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// codecPasses is how many times the recorded messages are re-encoded and
// decoded; the per-message cost is the median pass.
const codecPasses = 5

// replayCodec decodes the FBS streams each conn end wrote, then re-encodes
// and decodes every assign and result message the way the remote.v1 conn
// does: JSON body inside an FBS record, one Flush per message. It finds
// the "op" and "body" fields by name, so a changed schema is an error.
func replayCodec(wire [][]byte, t *tracer) error {
	type message struct {
		rec  stream.Record
		body any
	}
	var msgs []message
	for _, b := range wire {
		dec := stream.NewDecoder(bytes.NewReader(b))
		for {
			it, err := dec.Decode()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("replay: decoding recorded stream: %w", err)
			}
			op, raw, err := opAndBody(it.Payload)
			if err != nil {
				return err
			}
			var body any
			switch op {
			case remote.OpAssign:
				body = new(remote.Assignment)
			case remote.OpResult:
				body = new(remote.Outcome)
			default:
				continue
			}
			if err := json.Unmarshal(raw, body); err != nil {
				return err
			}
			msgs = append(msgs, message{it.Payload, body})
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	schema := msgs[0].rec.Schema
	bodyField := schema.FieldIndex("body")
	for pass := 0; pass < codecPasses; pass++ {
		var buf bytes.Buffer
		enc, err := stream.NewEncoder(&buf, schema)
		if err != nil {
			return err
		}
		start := time.Now()
		for i, m := range msgs {
			payload, err := json.Marshal(m.body)
			if err != nil {
				return err
			}
			vals := append([]any(nil), m.rec.Values...)
			vals[bodyField] = payload
			rec, err := stream.NewRecord(schema, vals...)
			if err != nil {
				return err
			}
			if err := enc.Encode(stream.Item{Seq: int64(i + 1), Time: time.Now(), Payload: rec}); err != nil {
				return err
			}
			if err := enc.Flush(); err != nil {
				return err
			}
		}
		t.record("replay.remote.encode", start, time.Now(), telemetry.Int("msgs", len(msgs)))

		dec := stream.NewDecoder(&buf)
		start = time.Now()
		for _, m := range msgs {
			it, err := dec.Decode()
			if err != nil {
				return err
			}
			if !it.Payload.Schema.Equal(*schema) {
				return fmt.Errorf("replay: schema changed mid-stream")
			}
			_, raw, err := opAndBody(it.Payload)
			if err != nil {
				return err
			}
			var v any = new(remote.Outcome)
			if _, ok := m.body.(*remote.Assignment); ok {
				v = new(remote.Assignment)
			}
			if err := json.Unmarshal(raw, v); err != nil {
				return err
			}
		}
		t.record("replay.remote.decode", start, time.Now(), telemetry.Int("msgs", len(msgs)))
	}
	return nil
}

// opAndBody reads a remote.v1 record's "op" and "body" fields by name.
func opAndBody(rec stream.Record) (string, []byte, error) {
	opv, err := rec.Get("op")
	if err != nil {
		return "", nil, fmt.Errorf("replay: %w", err)
	}
	bodyv, err := rec.Get("body")
	if err != nil {
		return "", nil, fmt.Errorf("replay: %w", err)
	}
	op, ok := opv.(string)
	body, ok2 := bodyv.([]byte)
	if !ok || !ok2 {
		return "", nil, fmt.Errorf("replay: %s record has op %T and body %T, want string and []byte", rec.Schema.Name, opv, bodyv)
	}
	return op, body, nil
}

// wireTotals counts the messages and bytes in the recorded streams.
func wireTotals(wire [][]byte) (msgs, bytesTotal int, err error) {
	for _, b := range wire {
		bytesTotal += len(b)
		dec := stream.NewDecoder(bytes.NewReader(b))
		for {
			if _, err := dec.Decode(); err == io.EOF {
				break
			} else if err != nil {
				return 0, 0, err
			}
			msgs++
		}
	}
	return msgs, bytesTotal, nil
}

// perMsg is the median replay pass's cost per message for one span name.
func perMsg(spans []telemetry.SpanData, name string) float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			if n := attrInt(s, "msgs"); n > 0 {
				xs = append(xs, float64(s.End.Sub(s.Start))/float64(time.Microsecond)/float64(n))
			}
		}
	}
	return median(xs)
}

// artifactMetrics computes the per-layer metrics that come from one traced
// campaign's artifacts and its replay, while the artifacts still exist.
func artifactMetrics(f *facts, mix journalMix, wire [][]byte, spans []telemetry.SpanData) (*layerReport, error) {
	n := float64(len(f.runs))
	per := func(x float64) float64 { return x / n }
	st := spanStats(spans)
	p50 := func(name string) float64 { return median(st[name]) }
	p99 := func(name string) float64 { return quantile(st[name], 0.99) }
	m := map[string]float64{}
	lr := &layerReport{m: m, runs: n}

	m["savanna.exec_calls_per_run"] = per(float64(f.execCalls))

	m["cas.memo_record_us_p50"] = p50("replay.memo.record")
	m["cas.memo_record_us_p99"] = p99("replay.memo.record")
	m["cas.put_us_p50"] = p50("replay.cas.put")
	m["cas.memo_lookup_us_p50"] = p50("replay.memo.lookup")
	m["cas.materialize_us_p50"] = p50("replay.cas.materialize")
	if f.memo != nil {
		fi, err := os.Stat(f.actionsFile)
		if err != nil {
			return nil, err
		}
		m["cas.actions_file_kb"] = float64(fi.Size()) / 1024
		m["cas.object_kb_per_run"] = per(float64(f.memo.Cache.Store().Stats().Bytes) / 1024)
	}

	m["cheetah.status_write_us_p50"] = p50("replay.status.write")
	m["cheetah.status_write_us_p99"] = p99("replay.status.write")

	m["resilience.journal_records_per_run"] = per(float64(len(mix.recs)))
	other := len(mix.recs)
	for _, k := range []string{resilience.AttemptStart, resilience.AttemptSuccess, resilience.AttemptDispatched} {
		m["resilience.journal_records_per_run."+k] = per(float64(mix.byKind[k]))
		other -= mix.byKind[k]
	}
	m["resilience.journal_records_per_run.other"] = per(float64(other))
	m["resilience.journal_bytes_per_run"] = per(float64(mix.bytes))
	m["resilience.journal_append_us_p50"] = p50("replay.journal.append")
	m["resilience.journal_append_us_p99"] = p99("replay.journal.append")

	if f.prov != nil {
		m["provenance.records_per_run"] = per(float64(f.prov.Len()))
	}
	m["provenance.append_us_p50"] = p50("replay.prov.append")

	msgs, wireBytes, err := wireTotals(wire)
	if err != nil {
		return nil, err
	}
	m["remote.msgs_per_run"] = per(float64(msgs))
	m["remote.wire_bytes_per_run"] = per(float64(wireBytes))
	m["remote.encode_us_per_msg"] = perMsg(spans, "replay.remote.encode")
	m["remote.decode_us_per_msg"] = perMsg(spans, "replay.remote.decode")
	if f.metrics != nil {
		if d := f.metrics.Counter("remote.runs_dispatched_total").Value(); d > 0 {
			m["remote.dispatch_efficiency"] = n / float64(d)
		}
	}

	var events int64
	for _, s := range f.sims {
		events += s.Processed()
	}
	m["hpcsim.events_per_run"] = per(float64(events))
	if o := f.simOut; o != nil {
		m["hpcsim.allocations"] = float64(o.Allocations)
		m["hpcsim.mean_utilization"] = o.MeanUtilization
		m["hpcsim.makespan_h"] = o.TotalWallSeconds / 3600
	}

	// The layers that run inside a slot's gap, as µs per run: the replay
	// made exactly the campaign's calls, so its span counts are the calls
	// per run. CAS put is part of memo record. The lookup hits and
	// materializes are the read path a re-submission would take; the
	// campaign itself made neither.
	for _, name := range []string{"replay.journal.append", "replay.status.write", "replay.prov.append",
		"replay.memo.miss", "replay.memo.record"} {
		lr.explainedUS += per(float64(len(st[name]))) * p50(name)
	}
	lr.explainedUS += m["remote.msgs_per_run"] * (m["remote.encode_us_per_msg"] + m["remote.decode_us_per_msg"])
	return lr, nil
}

// layerReport is one traced run's per-layer metrics under construction.
type layerReport struct {
	m    map[string]float64
	runs float64
	// explainedUS is Σ (µs per call × calls per run) over the replayed
	// layers that sit in a slot's gap.
	explainedUS float64
	pool        spanPool
}

// finish adds the per-layer metrics that pool every traced campaign
// (slot and conn spans) or compare the run's traced and untraced
// campaigns.
func (lr *layerReport) finish(rs runStats) {
	m, p := lr.m, &lr.pool
	per := func(x float64) float64 { return x / lr.runs }
	m["savanna.slot_gap_us_p50"] = median(p.gaps)
	m["savanna.slot_gap_us_p99"] = quantile(p.gaps, 0.99)
	m["savanna.exec_us_p50"] = median(p.exec)
	m["remote.write_us_p50"] = median(p.connWrite)
	m["remote.read_wait_us_p50"] = median(p.connRead)
	if g := mean(p.gaps); g > 0 {
		m["savanna.overhead_explained_frac"] = lr.explainedUS / g
	}

	m["cheetah.materialize_s"] = median(rs.materialize)
	m["resilience.retries_per_run"] = median(sampleValues(rs.untraced, func(s sample) float64 { return per(float64(s.retries)) }))
	m["os.write_syscalls_per_run"] = median(sampleValues(rs.untraced, func(s sample) float64 { return per(float64(s.syscw)) }))
	m["os.wchar_kb_per_run"] = median(sampleValues(rs.untraced, func(s sample) float64 { return per(float64(s.wchar) / 1024) }))
	m["write_kb_per_run"] = median(sampleValues(rs.untraced, func(s sample) float64 { return per(float64(s.writeBytes) / 1024) }))
	m["failed_run_frac"] = float64(rs.failed) / float64(max(rs.attempt, 1))
	if untraced := median(sampleValues(rs.untraced, sample.runsPerSec)); untraced > 0 {
		m["telemetry.trace_overhead_frac"] = median(sampleValues(rs.traced, sample.runsPerSec))/untraced - 1
	}
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
}

func sampleValues(ss []sample, fn func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = fn(s)
	}
	return out
}

// writeLayerTable renders the per-layer metrics grouped by module, with
// each metric's prediction.
func writeLayerTable(w io.Writer, workload string, m map[string]float64) {
	fmt.Fprintf(w, "per-layer metrics, %s (0 = layer not on this workload's path)\n", workload)
	layer := ""
	for _, d := range perLayer {
		if d.layer != layer {
			layer = d.layer
			fmt.Fprintf(w, "[%s]\n", layer)
		}
		fmt.Fprintf(w, "  %-44s %14.4f %-6s %s\n", d.name, m[d.name], d.unit, d.predict)
	}
}

// writeChromeTrace exports the recorded spans through the telemetry
// package's Chrome trace_event exporter.
func writeChromeTrace(path string, spans []telemetry.SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
