package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
	"distlog/internal/storage"
	"distlog/internal/transport"
	"distlog/internal/wire"
)

// clientConn is a second (third, ...) raw-protocol client against the
// rig's server, for multi-session tests.
type clientConn struct {
	ep   transport.Endpoint
	peer *wire.Peer
}

func (r *rig) connect(t *testing.T, addr string, id record.ClientID, connID uint64) *clientConn {
	t.Helper()
	ep := r.net.Endpoint(addr)
	c := &clientConn{ep: ep, peer: wire.NewPeer(ep, "srv", id, connID, 0, time.Millisecond)}
	seq, err := c.peer.Send(wire.TSyn, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt := c.recv(t)
	if pkt.Type != wire.TSynAck || pkt.RespTo != seq {
		t.Fatalf("expected SynAck to %d, got %+v", seq, pkt)
	}
	c.peer.SetEstablished()
	if _, err := c.peer.Send(wire.TAck, pkt.Seq, nil); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *clientConn) recv(t *testing.T) *wire.Packet {
	t.Helper()
	raw, err := c.ep.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	pkt, err := wire.Decode(raw.Data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return &pkt
}

func (c *clientConn) force(t *testing.T, epoch record.Epoch, lsn record.LSN, n int) {
	t.Helper()
	var recs []record.Record
	for i := 0; i < n; i++ {
		recs = append(recs, record.Record{LSN: lsn + record.LSN(i), Epoch: epoch, Present: true, Data: []byte("d")})
	}
	p := wire.RecordsPayload{Epoch: epoch, Records: recs}
	if _, err := c.peer.Send(wire.TForceLog, 0, p.Encode()); err != nil {
		t.Fatal(err)
	}
}

// TestSessionChurnReconnectBounded is the session-leak regression: a
// client that reconnects from a fresh UDP source port each incarnation
// (new address, new ConnID) must not leave its abandoned sessions in
// the map forever. The seed server kept every one.
func TestSessionChurnReconnectBounded(t *testing.T) {
	r := newRig(t)
	const churn = 40
	for i := 0; i < churn; i++ {
		addr := fmt.Sprintf("cli-churn-%d", i)
		c := r.connect(t, addr, 7, uint64(1000+i))
		c.force(t, 1, 1, 1)
		if pkt := c.recv(t); pkt.Type != wire.TNewHighLSN {
			t.Fatalf("incarnation %d: expected NewHighLSN, got %v", i, pkt.Type)
		}
	}
	st := r.srv.Stats()
	if st.Sessions != 1 {
		t.Fatalf("after %d reconnects, %d live sessions (want 1: each incarnation supersedes the last)", churn, st.Sessions)
	}
	if st.Evicted < churn-1 {
		t.Fatalf("evicted = %d, want >= %d", st.Evicted, churn-1)
	}
}

// TestSessionDualEndpointKept: the same incarnation (equal ConnID)
// speaking from two addresses is a dual-endpoint client, not a leak —
// both sessions stay. A later incarnation then supersedes both.
func TestSessionDualEndpointKept(t *testing.T) {
	r := newRig(t)
	r.connect(t, "cli-a", 7, 2000)
	r.connect(t, "cli-b", 7, 2000)
	if st := r.srv.Stats(); st.Sessions != 2 || st.Evicted != 0 {
		t.Fatalf("dual endpoint: sessions=%d evicted=%d, want 2 and 0", st.Sessions, st.Evicted)
	}
	r.connect(t, "cli-c", 7, 2001)
	if st := r.srv.Stats(); st.Sessions != 1 || st.Evicted != 2 {
		t.Fatalf("after supersede: sessions=%d evicted=%d, want 1 and 2", st.Sessions, st.Evicted)
	}
}

// TestSessionIdleEviction: the janitor reclaims sessions whose client
// vanished without a closing handshake (UDP has none).
func TestSessionIdleEviction(t *testing.T) {
	r := newRig(t, func(c *Config) { c.SessionIdle = 25 * time.Millisecond })
	r.handshake()
	if st := r.srv.Stats(); st.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", st.Sessions)
	}
	deadline := time.Now().Add(2 * time.Second)
	for r.srv.Stats().Sessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("idle session never evicted; stats = %+v", r.srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The address is not banned — a new handshake builds a new session.
	r.peer = wire.NewPeer(r.ep, "srv", 7, 1001, 0, time.Millisecond)
	r.handshake()
	if st := r.srv.Stats(); st.Sessions != 1 {
		t.Fatalf("re-handshake after eviction: sessions = %d, want 1", st.Sessions)
	}
}

// TestSlowReaderDoesNotBlockForce is the isolation regression the
// pipeline exists for: one client stuck in a slow synchronous read
// must not delay another client's ForceLog acknowledgment. The seed
// server ran every handler inline on the receive loop, so the force
// below waited out the whole read delay.
func TestSlowReaderDoesNotBlockForce(t *testing.T) {
	const readDelay = 600 * time.Millisecond
	r := newRig(t)
	reader := r.connect(t, "cli-reader", 7, 3000)
	writer := r.connect(t, "cli-writer", 8, 3001)

	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Arm(FPReadBeforeStore, 1, func() { time.Sleep(readDelay) })

	// The reader's worker parks in the delayed read path.
	lp := wire.LSNPayload{LSN: 1}
	if _, err := reader.peer.Send(wire.TReadForwardReq, 0, lp.Encode()); err != nil {
		t.Fatal(err)
	}
	// Give the read time to be dequeued so the delay is actually in
	// progress when the force arrives.
	time.Sleep(20 * time.Millisecond)

	start := time.Now()
	writer.force(t, 1, 1, 1)
	if pkt := writer.recv(t); pkt.Type != wire.TNewHighLSN {
		t.Fatalf("expected NewHighLSN, got %v", pkt.Type)
	}
	if elapsed := time.Since(start); elapsed > readDelay/2 {
		t.Fatalf("force ack took %v behind a %v read: the slow reader stalled another session", elapsed, readDelay)
	}
	// The reader's own call still completes (with NotStored — nothing
	// is logged at LSN 1 for client 7's store view before its write).
	reader.recv(t)
}

// countingStore wraps a Store, slowing Force and counting the calls
// that reach the underlying store.
type countingStore struct {
	storage.Store
	delay  time.Duration
	forces atomic.Int64
}

func (c *countingStore) Force() error {
	c.forces.Add(1)
	time.Sleep(c.delay)
	return c.Store.Force()
}

// TestConcurrentForcesCoalesce: many sessions forcing at once share
// underlying store forces (server-side group force), and every one of
// them still gets its NewHighLSN — the acked ⇒ durable invariant under
// coalescing.
func TestConcurrentForcesCoalesce(t *testing.T) {
	cs := &countingStore{Store: storage.NewMemStore(), delay: 2 * time.Millisecond}
	r := newRig(t, func(c *Config) { c.Store = cs })

	const clients = 8
	const forcesEach = 5
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.connect(t, fmt.Sprintf("cli-fc-%d", i), record.ClientID(20+i), uint64(4000+i))
			for f := 0; f < forcesEach; f++ {
				c.force(t, 1, record.LSN(1+f), 1)
				for {
					pkt := c.recv(t)
					if pkt.Type == wire.TNewHighLSN {
						break
					}
					if pkt.Type == wire.TErrResp {
						errs <- fmt.Errorf("client %d force %d: %s", i, f, pkt.Payload)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := int64(clients * forcesEach)
	rounds := cs.forces.Load()
	if rounds == 0 {
		t.Fatal("no store forces ran")
	}
	if rounds >= total {
		t.Fatalf("no coalescing: %d store forces for %d acked ForceLogs", rounds, total)
	}
	st := r.srv.Stats()
	if st.ForceRounds != uint64(rounds) {
		t.Fatalf("Stats.ForceRounds = %d, store saw %d", st.ForceRounds, rounds)
	}
	if st.Forces != uint64(total) {
		t.Fatalf("Stats.Forces = %d, want %d (every ForceLog acked)", st.Forces, total)
	}
	t.Logf("%d acked forces over %d store rounds (%d coalesced joiners)", total, rounds, st.ForcesCoalesced)
}

// hugeIntervalStore fakes a pathological interval list, far beyond
// what one reply packet can carry.
type hugeIntervalStore struct {
	storage.Store
	n int
}

func (h *hugeIntervalStore) Intervals(record.ClientID) []record.Interval {
	ivs := make([]record.Interval, h.n)
	for i := range ivs {
		ivs[i] = record.Interval{Epoch: 1, Low: record.LSN(2*i + 1), High: record.LSN(2*i + 1)}
	}
	return ivs
}

// TestIntervalListOversizedList: trimming an oversized interval list
// must be computed from the fixed encoding width, not by re-encoding
// the whole payload once per dropped interval — the seed's O(n²) loop
// took tens of seconds over this list and times the recv out.
func TestIntervalListOversizedList(t *testing.T) {
	const huge = 50_000
	hs := &hugeIntervalStore{Store: storage.NewMemStore(), n: huge}
	r := newRig(t, func(c *Config) { c.Store = hs })
	r.handshake()

	seq, err := r.peer.Send(wire.TIntervalListReq, 0, (&wire.IntervalListPayload{}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	pkt := r.recv() // 2s deadline: the quadratic trim blows it
	if pkt.Type != wire.TIntervalListResp || pkt.RespTo != seq {
		t.Fatalf("resp = %+v", pkt)
	}
	p, err := wire.DecodeIntervalListPayload(pkt.Payload)
	if err != nil {
		t.Fatal(err)
	}
	want := wire.MaxIntervalsPerPacket
	if len(p.Intervals) != want {
		t.Fatalf("got %d intervals, want the %d most recent", len(p.Intervals), want)
	}
	// The reply keeps the tail — the most recent intervals, the ones
	// initialization needs.
	last := p.Intervals[len(p.Intervals)-1]
	if wantHigh := record.LSN(2*(huge-1) + 1); last.High != wantHigh {
		t.Fatalf("last interval High = %d, want %d (most recent)", last.High, wantHigh)
	}
	if len((&wire.IntervalListPayload{Intervals: p.Intervals}).Encode()) > wire.MaxPayload {
		t.Fatal("trimmed reply still exceeds MaxPayload")
	}

	// The rest of the list is there for the asking: skipping what the
	// first page carried yields the page just older than it, and a skip
	// past the oldest interval yields a short (here empty) page.
	page := func(skip int) []record.Interval {
		t.Helper()
		req := wire.IntervalListReqPayload{Skip: uint32(skip)}
		seq, err := r.peer.Send(wire.TIntervalListReq, 0, req.Encode())
		if err != nil {
			t.Fatal(err)
		}
		pkt := r.recv()
		if pkt.Type != wire.TIntervalListResp || pkt.RespTo != seq {
			t.Fatalf("resp = %+v", pkt)
		}
		p, err := wire.DecodeIntervalListPayload(pkt.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return p.Intervals
	}
	second := page(want)
	if len(second) != want || second[len(second)-1].High+2 != p.Intervals[0].Low {
		t.Fatalf("second page: %d intervals ending at %v, want %d ending just below %v",
			len(second), second[len(second)-1], want, p.Intervals[0])
	}
	if oldest := page(huge - 3); len(oldest) != 3 || oldest[0].Low != 1 {
		t.Fatalf("oldest page = %v, want the first 3 intervals", oldest)
	}
	if beyond := page(huge + 10); len(beyond) != 0 {
		t.Fatalf("page beyond the list = %v, want empty", beyond)
	}
}

// TestQueueOverflowSheds: a session whose worker is stuck only backs
// up — and sheds — its own bounded queue.
func TestQueueOverflowSheds(t *testing.T) {
	r := newRig(t, func(c *Config) { c.QueueDepth = 4 })
	r.handshake()

	faultpoint.Reset()
	defer faultpoint.Reset()
	faultpoint.Arm(FPReadBeforeStore, 1, func() { time.Sleep(300 * time.Millisecond) })

	lp := wire.LSNPayload{LSN: 1}
	if _, err := r.peer.Send(wire.TReadForwardReq, 0, lp.Encode()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the worker park in the read

	// Flood well past the queue depth while the worker sleeps.
	for i := 0; i < 20; i++ {
		p := wire.RecordsPayload{Epoch: 1, Records: []record.Record{{LSN: record.LSN(i + 1), Epoch: 1, Present: true, Data: []byte("x")}}}
		if _, err := r.peer.Send(wire.TWriteLog, 0, p.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for r.srv.Stats().QueueSheds == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never shed; stats = %+v", r.srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
