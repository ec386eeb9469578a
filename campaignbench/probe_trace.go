package main

import (
	"bytes"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fairflow/internal/telemetry"
)

// tracer records spans around the benchmark's own calls into each layer
// during a traced campaign: the campaign call, executor calls (tagged with
// the calling goroutine, so slot gaps can be measured),
// Collect calls, conn reads and writes, and the layer-replay pass. Spans
// are filed with explicit start and end times, so a span's duration is the
// call's duration and excludes the tracer's own bookkeeping. A nil *tracer
// records nothing; untraced campaigns use nil.
type tracer struct {
	tr *telemetry.Tracer
	// root is the parent span of everything the current campaign or replay
	// records; worker goroutines read it while the main goroutine moves it.
	root atomic.Int64

	mu    sync.Mutex
	conns []*tracedConn
}

func newTracer() *tracer {
	tr := telemetry.NewTracer()
	tr.SetCapacity(1 << 20)
	return &tracer{tr: tr}
}

// record files one finished span.
func (t *tracer) record(name string, start, end time.Time, attrs ...telemetry.Attr) {
	if t == nil {
		return
	}
	t.tr.Ingest(telemetry.SpanData{ID: t.tr.AllocID(), Parent: t.root.Load(), Name: name,
		Start: start, End: end, Attrs: attrs})
}

// begin opens a new root span scope (one per traced campaign or replay
// pass) and returns the function that closes it.
func (t *tracer) begin(name string) func() {
	if t == nil {
		return func() {}
	}
	id, start := t.tr.AllocID(), time.Now()
	t.root.Store(id)
	return func() {
		t.tr.Ingest(telemetry.SpanData{ID: id, Name: name, Start: start, End: time.Now()})
	}
}

// timed runs fn under a span named name.
func (t *tracer) timed(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.record(name, start, time.Now())
	return err
}

// exec times one executor call, which occupies a worker slot. The slot
// attribute is the calling goroutine's id: every engine runs one slot per
// goroutine, so consecutive spans with the same slot bound the slot's gap.
func (t *tracer) exec(fn func() error) error {
	if t == nil {
		return fn()
	}
	slot := goroutineID()
	start := time.Now()
	err := fn()
	t.record("exec", start, time.Now(), telemetry.String("slot", slot))
	return err
}

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:"). Used only by traced campaigns.
func goroutineID() string {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	return string(b)
}

// wrap instruments one remote.v1 connection end. side names the end
// ("worker" or "coordinator").
func (t *tracer) wrap(c net.Conn, side string) net.Conn {
	if t == nil {
		return c
	}
	tc := &tracedConn{Conn: c, t: t, side: telemetry.String("side", side)}
	t.mu.Lock()
	t.conns = append(t.conns, tc)
	t.mu.Unlock()
	return tc
}

// takeConns returns and forgets the connections wrapped so far.
func (t *tracer) takeConns() []*tracedConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.conns
	t.conns = nil
	return out
}

// tracedConn times each Read and Write and keeps a copy of every byte this
// end wrote — one complete FBS stream, which the per-layer pass decodes to
// count messages and replays through the stream codec.
type tracedConn struct {
	net.Conn
	t    *tracer
	side telemetry.Attr

	mu    sync.Mutex
	wrote bytes.Buffer
}

func (c *tracedConn) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(b)
	c.t.record("conn.write", start, time.Now(), c.side, telemetry.Int("bytes", n))
	c.mu.Lock()
	c.wrote.Write(b[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tracedConn) Read(b []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Read(b)
	c.t.record("conn.read", start, time.Now(), c.side, telemetry.Int("bytes", n))
	return n, err
}

// written returns a copy of the bytes this end wrote.
func (c *tracedConn) written() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.wrote.Bytes()...)
}

// tracedListener wraps accepted coordinator-side connections.
type tracedListener struct {
	net.Listener
	t *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrap(c, "coordinator"), nil
}

// spanStats groups recorded span durations (µs) by name.
func spanStats(spans []telemetry.SpanData) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], durationUS(s))
	}
	return out
}

func durationUS(s telemetry.SpanData) float64 {
	return float64(s.End.Sub(s.Start)) / float64(time.Microsecond)
}

// spanPool keeps the durations (µs) the per-layer metrics pool across
// every traced campaign of a run, so each campaign's spans can be dropped
// once it is folded in.
type spanPool struct {
	gaps, exec, connWrite, connRead []float64
}

// add folds one traced campaign's spans in. A slot's gap is the time
// between the end of one executor call and the start of the next on the
// same slot.
func (p *spanPool) add(spans []telemetry.SpanData) {
	last := map[string]time.Time{}
	for _, s := range spans {
		switch s.Name {
		case "exec":
			slot := s.Attr("slot")
			if prev, ok := last[slot]; ok {
				p.gaps = append(p.gaps, float64(s.Start.Sub(prev))/float64(time.Microsecond))
			}
			last[slot] = s.End
			p.exec = append(p.exec, durationUS(s))
		case "conn.write":
			p.connWrite = append(p.connWrite, durationUS(s))
		case "conn.read":
			p.connRead = append(p.connRead, durationUS(s))
		}
	}
}

// attrInt reads an integer span attribute (0 when absent).
func attrInt(s telemetry.SpanData, key string) int {
	n, _ := strconv.Atoi(s.Attr(key))
	return n
}
