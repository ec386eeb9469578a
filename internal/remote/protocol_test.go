package remote

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"fairflow/internal/stream"
)

// gateConn holds every Write until the test releases it, recording what
// each Write carried.
type gateConn struct {
	net.Conn
	entered chan struct{} // one receive per Write that has begun
	gate    chan struct{} // one send releases one Write
	writes  [][]byte
}

func (g *gateConn) Write(p []byte) (int, error) {
	g.entered <- struct{}{}
	<-g.gate
	g.writes = append(g.writes, append([]byte(nil), p...))
	return len(p), nil
}

// decodeOps decodes an FBS stream and returns its message verbs in order.
func decodeOps(t *testing.T, b []byte) []string {
	t.Helper()
	dec := stream.NewDecoder(bytes.NewReader(b))
	var ops []string
	for {
		it, err := dec.Decode()
		if err == io.EOF {
			return ops
		}
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, it.Payload.Values[0].(string))
	}
}

// TestConnCoalescesQueuedFrames pins the writer's contract: frames sent
// while a Write is in progress all reach the next Write together, in send
// order.
func TestConnCoalescesQueuedFrames(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	g := &gateConn{Conn: a, entered: make(chan struct{}), gate: make(chan struct{})}
	c, err := newConn(g, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.send(OpHeartbeat, "w0", 1, nil); err != nil {
		t.Fatal(err)
	}
	<-g.entered // the writer now holds the heartbeat in its first Write
	queued := []string{OpResult, OpTelemetry, OpStolen}
	for _, op := range queued {
		if err := c.send(op, "w0", 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	g.gate <- struct{}{}
	<-g.entered
	g.gate <- struct{}{}
	c.close() // returns once the writer has exited

	if len(g.writes) != 2 {
		t.Fatalf("%d writes, want 2", len(g.writes))
	}
	if ops := decodeOps(t, g.writes[0]); len(ops) != 1 || ops[0] != OpHeartbeat {
		t.Fatalf("first write carried %v, want [heartbeat]", ops)
	}
	all := decodeOps(t, append(g.writes[0], g.writes[1]...))
	want := append([]string{OpHeartbeat}, queued...)
	if len(all) != len(want) {
		t.Fatalf("stream carried %v, want %v", all, want)
	}
	for i := range want {
		if all[i] != want[i] {
			t.Fatalf("stream carried %v, want %v", all, want)
		}
	}
	if err := c.send(OpHeartbeat, "w0", 1, nil); err == nil {
		t.Fatal("send after close succeeded")
	}
}

// TestConnAbortDoesNotWaitOnPeer pins abort: with the writer blocked on a
// peer that never reads, abort still ends the writer, where close would
// wait out the write deadline.
func TestConnAbortDoesNotWaitOnPeer(t *testing.T) {
	a, b := net.Pipe() // b is never read, so every Write on a blocks
	defer b.Close()
	c, err := newConn(a, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.send(OpHeartbeat, "w0", 1, nil); err != nil {
		t.Fatal(err)
	}
	c.abort()
	<-c.done
	if err := c.send(OpHeartbeat, "w0", 1, nil); err == nil {
		t.Fatal("send after abort succeeded")
	}
}

// pipeListener hands out pre-made in-memory connections.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener(conns ...net.Conn) *pipeListener {
	l := &pipeListener{conns: make(chan net.Conn, len(conns)), done: make(chan struct{})}
	for _, c := range conns {
		l.conns <- c
	}
	return l
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// expectOp receives one message and fails unless it carries op.
func expectOp(t *testing.T, c *conn, op string) msg {
	t.Helper()
	m, err := c.recv(5 * time.Second)
	if err != nil {
		t.Fatalf("waiting for %q: %v", op, err)
	}
	if m.Op != op {
		t.Fatalf("got %q, want %q", m.Op, op)
	}
	return m
}

// TestCoordinatorAcksLastResultBeforeDrain pins the ack/drain order: the
// result that finishes a campaign is acked on the wire before the drain,
// so a worker that has read the drain holds no unacknowledged outcome.
func TestCoordinatorAcksLastResultBeforeDrain(t *testing.T) {
	worker, coord := net.Pipe()
	e := &Engine{Listener: newPipeListener(coord), BatchSize: 4, LeaseTTL: time.Minute}
	runs := testRuns(1)
	type result struct {
		ok  bool
		err error
	}
	done := make(chan result, 1)
	go func() {
		_, rep, err := e.RunCampaign(context.Background(), "order", runs)
		done <- result{rep.Complete(), err}
	}()

	c, err := newConn(worker, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.send(OpHello, "w0", 0, Hello{Slots: 1}); err != nil {
		t.Fatal(err)
	}
	grant := expectOp(t, c, OpLeaseGrant)
	a, err := decodeBody[Assignment](expectOp(t, c, OpAssign))
	if err != nil || len(a.Runs) != 1 {
		t.Fatalf("assignment = %+v err=%v", a, err)
	}
	if err := c.send(OpResult, grant.Worker, grant.Lease, Outcome{RunID: a.Runs[0].ID, OK: true}); err != nil {
		t.Fatal(err)
	}
	ack, err := decodeBody[ResultAck](expectOp(t, c, OpResultAck))
	if err != nil || ack.RunID != runs[0].ID {
		t.Fatalf("ack = %+v err=%v", ack, err)
	}
	expectOp(t, c, OpDrain)
	c.close()
	if r := <-done; r.err != nil || !r.ok {
		t.Fatalf("campaign: complete=%v err=%v", r.ok, r.err)
	}
}

// TestLateWorkerGetsDrain pins the late-join path: a worker whose hello
// arrives after the campaign started draining is told so with OpDrain, and
// only then sees the connection close.
func TestLateWorkerGetsDrain(t *testing.T) {
	worker, coord := net.Pipe()
	co := &coordinator{e: &Engine{}, draining: true}
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		co.handleConn(coord)
	}()

	c, err := newConn(worker, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if err := c.send(OpHello, "late", 0, Hello{Slots: 1}); err != nil {
		t.Fatal(err)
	}
	expectOp(t, c, OpDrain)
	if m, err := c.recv(5 * time.Second); err != io.EOF {
		t.Fatalf("after drain: op %q err %v, want EOF", m.Op, err)
	}
	<-handled
}

// TestRefillRespectsSlots pins the refill threshold. A single-slot worker
// is topped up only once its outstanding runs fall to half a batch; a
// worker whose slots fill the batch is topped up after every result, so
// none of its slots waits on the next assignment.
func TestRefillRespectsSlots(t *testing.T) {
	for _, tc := range []struct {
		slots int
		want  []int // runs assigned in response to each result, in order
	}{
		{slots: 1, want: []int{0, 2, 0, 2, 0, 0, 0, 0}},
		{slots: 4, want: []int{1, 1, 1, 1, 0, 0, 0, 0}},
	} {
		worker, coord := net.Pipe()
		e := &Engine{Listener: newPipeListener(coord), BatchSize: 4, LeaseTTL: time.Minute}
		runs := testRuns(8)
		done := make(chan error, 1)
		go func() {
			_, _, err := e.RunCampaign(context.Background(), "refill", runs)
			done <- err
		}()

		c, err := newConn(worker, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.send(OpHello, "w0", 0, Hello{Slots: tc.slots}); err != nil {
			t.Fatal(err)
		}
		grant := expectOp(t, c, OpLeaseGrant)
		a, err := decodeBody[Assignment](expectOp(t, c, OpAssign))
		if err != nil || len(a.Runs) != 4 {
			t.Fatalf("slots=%d: first assignment = %+v err=%v", tc.slots, a, err)
		}
		held := a.Runs
		var got []int
		for len(held) > 0 {
			id := held[0].ID
			held = held[1:]
			if err := c.send(OpResult, grant.Worker, grant.Lease, Outcome{RunID: id, OK: true}); err != nil {
				t.Fatal(err)
			}
			// Any assignment this result triggers is queued before its ack.
			n := 0
			for {
				m, err := c.recv(5 * time.Second)
				if err != nil {
					t.Fatalf("slots=%d: waiting for ack of %s: %v", tc.slots, id, err)
				}
				if m.Op == OpResultAck {
					break
				}
				if m.Op != OpAssign {
					t.Fatalf("slots=%d: got %q before ack of %s", tc.slots, m.Op, id)
				}
				a, err := decodeBody[Assignment](m)
				if err != nil {
					t.Fatal(err)
				}
				n += len(a.Runs)
				held = append(held, a.Runs...)
			}
			got = append(got, n)
		}
		expectOp(t, c, OpDrain)
		c.close()
		if err := <-done; err != nil {
			t.Fatalf("slots=%d: campaign: %v", tc.slots, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("slots=%d: refills %v, want %v", tc.slots, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("slots=%d: refills %v, want %v", tc.slots, got, tc.want)
			}
		}
	}
}
