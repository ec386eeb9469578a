// Package remote is the third Savanna engine: a coordinator/worker
// execution plane that shards a campaign across OS processes connected by
// the internal/stream TCP transport. The coordinator owns the campaign —
// the run queue, the resilience controller, the attempt journal, the memo
// cache — and dispatches batched assignments to workers holding leases;
// workers execute runs and report outcomes, moving artifacts by digest
// through a (typically shared) CAS store rather than shipping bytes over
// the control connection. Lease expiry re-dispatches a dead worker's runs;
// the journal keeps exactly-once accounting across worker and coordinator
// crashes alike.
//
// The wire protocol is one FBS-typed record schema (remote.v1) carrying a
// punctuation-style operation verb, the worker name, the lease id, and a
// JSON body whose shape the verb selects — the same typed-records +
// control-punctuation design as the streaming substrate, reused for the
// execution plane. See DESIGN.md §4g for the record schemas and the lease
// state machine.
package remote

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fairflow/internal/cheetah"
	"fairflow/internal/stream"
	"fairflow/internal/telemetry"
	"fairflow/internal/telemetry/eventlog"
)

// Protocol operation verbs (the control punctuation of the execution
// plane). Direction is noted per verb.
const (
	// OpHello opens a worker session (worker → coordinator): body Hello.
	OpHello = "hello"
	// OpLeaseGrant admits the worker (coordinator → worker): body LeaseGrant.
	OpLeaseGrant = "lease-grant"
	// OpAssign hands the worker a batch of runs (coordinator → worker):
	// body Assignment.
	OpAssign = "assign"
	// OpResult reports one run's terminal outcome (worker → coordinator):
	// body Outcome.
	OpResult = "result"
	// OpHeartbeat renews the worker's lease (worker → coordinator): body
	// Heartbeat.
	OpHeartbeat = "heartbeat"
	// OpSteal asks the worker to relinquish queued-but-unstarted runs
	// (coordinator → worker): body Steal.
	OpSteal = "steal"
	// OpStolen returns the run ids actually relinquished (worker →
	// coordinator): body Stolen.
	OpStolen = "stolen"
	// OpDrain tells the worker the campaign is over (coordinator → worker);
	// the worker finishes nothing further and closes cleanly.
	OpDrain = "drain"
	// OpHeartbeatAck echoes a heartbeat's send timestamp back (coordinator
	// → worker): body HeartbeatAck. The worker measures heartbeat RTT from
	// it — the clock-skew estimator's input.
	OpHeartbeatAck = "heartbeat-ack"
	// OpTelemetry ships a bounded batch of worker telemetry — finished
	// spans, metric deltas, journal events — to the coordinator (worker →
	// coordinator): body TelemetryBatch. Flushes piggyback on the heartbeat
	// cadence; a final drain flush follows OpDrain, before the worker
	// closes.
	OpTelemetry = "telemetry"
	// OpResultAck acknowledges one OpResult (coordinator → worker): body
	// ResultAck. The ack clears the worker's outcome spool entry; until it
	// arrives the worker keeps the outcome buffered and replays it on
	// re-handshake, so a coordinator crash between a result send and its
	// journal write never loses finished work. Acks are sent after the
	// outcome is folded into the journal, and for *every* result — including
	// duplicates and runs a resumed coordinator no longer tracks — so spools
	// always drain.
	OpResultAck = "result-ack"
)

// msgSchema is the one typed record layout of the execution plane. The
// epoch field fences coordinator handovers: every message carries its
// sender's coordinator epoch (workers echo the epoch of the session that
// admitted them), and receivers drop anything stamped below the highest
// epoch they have seen — a partitioned predecessor's assignments and acks
// are rejected, not executed. Epoch 0 (a journal-less coordinator) opts out
// of fencing entirely, keeping pre-failover deployments byte-compatible in
// behaviour.
var msgSchema = &stream.Schema{
	Name: "remote.v1",
	Fields: []stream.Field{
		{Name: "op", Type: stream.TString},
		{Name: "worker", Type: stream.TString},
		{Name: "lease", Type: stream.TInt64},
		{Name: "epoch", Type: stream.TInt64},
		{Name: "body", Type: stream.TBytes},
	},
}

// Hello is a worker's session-opening body.
type Hello struct {
	// Slots is the worker's run concurrency (≥1).
	Slots int `json:"slots"`
}

// LeaseGrant is the coordinator's admission body.
type LeaseGrant struct {
	Campaign string `json:"campaign"`
	// TTLMillis is the lease duration; the worker must heartbeat well
	// inside it (TTL/3 is the convention).
	TTLMillis int64 `json:"ttl_ms"`
	// Component and Inputs seed the worker's memo recipe so its action
	// cache keys agree with the coordinator's: same component digest, same
	// campaign-level input digests — artifacts resolve by digest on any
	// machine sharing the store.
	Component string            `json:"component,omitempty"`
	Inputs    map[string]string `json:"inputs,omitempty"`
	// Epoch is the granting coordinator's fenced journal epoch. A worker
	// that has already served a higher epoch rejects the grant — the dialed
	// address reached a deposed incarnation.
	Epoch int64 `json:"epoch,omitempty"`
}

// Assignment is one batch of runs.
type Assignment struct {
	Runs []cheetah.Run `json:"runs"`
	// Trace maps run id → the coordinator's dispatch span context
	// (traceparent string, see telemetry.SpanContext), so the worker's run
	// span parents under the span that dispatched it and the campaign stays
	// one trace across processes. Absent when the coordinator traces
	// nothing.
	Trace map[string]string `json:"trace,omitempty"`
}

// Outcome is one run's terminal report from a worker.
type Outcome struct {
	RunID   string  `json:"run"`
	OK      bool    `json:"ok"`
	Cached  bool    `json:"cached,omitempty"`
	Seconds float64 `json:"seconds"`
	Err     string  `json:"err,omitempty"`
	// Class carries the worker-side failure classification (transient /
	// permanent / deadline) so the coordinator's retry policy sees the same
	// error taxonomy it would in-process.
	Class string `json:"class,omitempty"`
	// Outputs are the run's artifacts by digest (name → digest), already
	// pushed into the worker's CAS — the coordinator materializes from its
	// own store view; bytes never ride the control connection.
	Outputs map[string]string `json:"outputs,omitempty"`
	// CPUUserSeconds/CPUSystemSeconds/MaxRSSBytes carry the run's kernel
	// resource accounting (summed across worker-side attempts, peak RSS in
	// bytes) so the coordinator sees fleet-wide cost, not just wall time.
	CPUUserSeconds   float64 `json:"cpu_user_s,omitempty"`
	CPUSystemSeconds float64 `json:"cpu_sys_s,omitempty"`
	MaxRSSBytes      int64   `json:"max_rss,omitempty"`
}

// Heartbeat renews a lease and reports queue occupancy (the coordinator's
// steal heuristic input).
type Heartbeat struct {
	Queued   int `json:"queued"`
	InFlight int `json:"in_flight"`
	// SentUnixNano stamps the worker's clock at send time; with RTTNanos it
	// feeds the coordinator's per-worker clock-skew estimate.
	SentUnixNano int64 `json:"sent,omitempty"`
	// RTTNanos is the worker's last measured heartbeat round trip (0 until
	// the first OpHeartbeatAck arrives).
	RTTNanos int64 `json:"rtt,omitempty"`
}

// HeartbeatAck returns a heartbeat's send timestamp to the worker, which
// computes RTT as its current clock minus the echo (both ends of that
// subtraction are the worker's own clock, so skew cancels).
type HeartbeatAck struct {
	EchoUnixNano int64 `json:"echo"`
}

// TelemetryBatch is one bounded shipment of a worker's telemetry. Spans
// and events are capped per batch (maxTelemetryBatch); whatever the
// worker's local buffers dropped before shipping is reported in the
// Dropped counts so the loss is loud on the coordinator
// (remote.telemetry_dropped_total), never silent.
type TelemetryBatch struct {
	Spans  []telemetry.SpanData `json:"spans,omitempty"`
	Events []eventlog.Event     `json:"events,omitempty"`
	// Metrics is the delta since the previous batch (counters and
	// histograms as increments, gauges as levels); the coordinator folds it
	// into its registry under a worker label.
	Metrics       *telemetry.MetricsSnapshot `json:"metrics,omitempty"`
	DroppedSpans  int64                      `json:"dropped_spans,omitempty"`
	DroppedEvents int64                      `json:"dropped_events,omitempty"`
	// SentUnixNano / RTTNanos mirror Heartbeat's skew-estimation fields, so
	// span timestamps in this batch can be skew-adjusted with an estimate
	// at least as fresh as the batch itself.
	SentUnixNano int64 `json:"sent,omitempty"`
	RTTNanos     int64 `json:"rtt,omitempty"`
}

// Steal asks a worker to give back up to N queued runs.
type Steal struct {
	N int `json:"n"`
}

// Stolen lists the run ids a worker actually relinquished (never ones it
// already started — stealing must not double-execute).
type Stolen struct {
	RunIDs []string `json:"runs"`
}

// ResultAck acknowledges one run's outcome report.
type ResultAck struct {
	RunID string `json:"run"`
}

// msg is one decoded protocol record.
type msg struct {
	Op     string
	Worker string
	Lease  int64
	Epoch  int64
	Body   []byte
}

// decodeBody parses a message body into the verb's payload type.
func decodeBody[T any](m msg) (T, error) {
	var v T
	if len(m.Body) == 0 {
		return v, nil
	}
	if err := json.Unmarshal(m.Body, &v); err != nil {
		return v, fmt.Errorf("remote: bad %s body: %w", m.Op, err)
	}
	return v, nil
}

// conn wraps one protocol connection: an FBS decoder for the read side,
// and one writer goroutine that owns the write side. send only encodes the
// frame into an ordered outbound buffer; the writer swaps the buffer out and
// makes one Write for everything queued. Frames therefore reach the wire in
// the order they were sent — from any number of goroutines — and a burst of
// sends costs one syscall.
type conn struct {
	c   net.Conn
	dec *stream.Decoder

	// epoch stamps every outgoing message. The coordinator sets it to its
	// fenced journal epoch at accept; the worker sets it from the lease
	// grant, so its results carry the epoch of the session that admitted
	// them.
	epoch atomic.Int64

	// timeout bounds each write and each idle read; zero disables deadlines.
	timeout time.Duration

	mu   sync.Mutex
	wake *sync.Cond // signals the writer: frames queued, or the conn is closing
	enc  *stream.Encoder
	// out holds the encoded frames not yet handed to the writer, in send
	// order; spare is the buffer the writer returns after each Write, so
	// the two alternate without reallocating.
	out   outbox
	spare []byte
	seq   int64
	// err is sticky: the first write error, or net.ErrClosed once close
	// was called. Every later send returns it.
	err error
	// done closes when the writer has exited and closed the connection.
	done chan struct{}
}

// outbox is the encoder's sink: frames accumulate in b until the writer
// takes them.
type outbox struct{ b []byte }

func (o *outbox) Write(p []byte) (int, error) {
	o.b = append(o.b, p...)
	return len(p), nil
}

func newConn(c net.Conn, timeout time.Duration) (*conn, error) {
	cn := &conn{c: c, dec: stream.NewDecoder(c), timeout: timeout, done: make(chan struct{})}
	enc, err := stream.NewEncoder(&cn.out, msgSchema)
	if err != nil {
		return nil, err
	}
	cn.enc = enc
	cn.wake = sync.NewCond(&cn.mu)
	go cn.writeLoop()
	return cn, nil
}

// send queues one message for the writer. body is JSON-marshalled; nil
// sends an empty body. A nil return means the frame is queued, not that it
// was written: a write failure closes the connection, so the peer's read
// loop — and this end's — reports it, and every later send returns it.
func (c *conn) send(op, worker string, lease int64, body any) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	rec, err := stream.NewRecord(msgSchema, op, worker, lease, c.epoch.Load(), payload)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	c.seq++
	if err := c.enc.Encode(stream.Item{Seq: c.seq, Time: time.Now(), Payload: rec}); err != nil {
		return err
	}
	if err := c.enc.Flush(); err != nil {
		return err
	}
	c.wake.Signal()
	return nil
}

// writeLoop is the conn's one writer. It runs until close was called and
// the queue is flushed, or a write fails; either way it closes the
// connection on exit, which ends both read loops.
func (c *conn) writeLoop() {
	defer close(c.done)
	c.mu.Lock()
	for {
		for len(c.out.b) == 0 && c.err == nil {
			c.wake.Wait()
		}
		if len(c.out.b) == 0 {
			break // closed with nothing left to flush
		}
		buf := c.out.b
		c.out.b = c.spare
		c.mu.Unlock()
		if c.timeout > 0 {
			c.c.SetWriteDeadline(time.Now().Add(c.timeout))
		}
		_, err := c.c.Write(buf)
		c.mu.Lock()
		c.spare = buf[:0]
		if err != nil {
			if c.err == nil {
				c.err = err
			}
			break
		}
	}
	c.mu.Unlock()
	c.c.Close()
}

// recv decodes the next message, waiting at most maxIdle (0 = the conn's
// default timeout; negative = no deadline).
func (c *conn) recv(maxIdle time.Duration) (msg, error) {
	if maxIdle == 0 {
		maxIdle = c.timeout
	}
	if maxIdle > 0 {
		c.c.SetReadDeadline(time.Now().Add(maxIdle))
	} else {
		c.c.SetReadDeadline(time.Time{})
	}
	it, err := c.dec.Decode()
	if err != nil {
		return msg{}, err
	}
	r := it.Payload
	if r.Schema == nil || !r.Schema.Equal(*msgSchema) {
		return msg{}, fmt.Errorf("remote: unexpected schema %q", r.Schema.Name)
	}
	return msg{
		Op:     r.Values[0].(string),
		Worker: r.Values[1].(string),
		Lease:  r.Values[2].(int64),
		Epoch:  r.Values[3].(int64),
		Body:   r.Values[4].([]byte),
	}, nil
}

// close ends the conn gracefully: later sends fail, the writer flushes
// whatever is already queued and closes the connection, and close returns
// once it has. The writer's per-Write deadline bounds the wait on a peer
// that stopped reading. Closing twice is harmless.
func (c *conn) close() {
	c.stop()
	<-c.done
}

// abort ends the conn at once: later sends fail and queued frames are
// dropped. It never waits on the peer, so paths that must not stall — the
// lease reaper, a forced shutdown, a cancelled context — use it instead of
// close.
func (c *conn) abort() {
	c.stop()
	c.c.Close()
}

// stop makes every later send fail and wakes the writer to finish.
func (c *conn) stop() {
	c.mu.Lock()
	if c.err == nil {
		c.err = net.ErrClosed
	}
	c.wake.Signal()
	c.mu.Unlock()
}
