package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"distlog/internal/record"
	"distlog/internal/transport"
	"distlog/internal/wire"
)

// Session errors.
var (
	// ErrCallTimeout is returned when a synchronous call exhausts its
	// retries without a response.
	ErrCallTimeout = errors.New("core: call timed out")
	// ErrSessionClosed is returned after the session is shut down.
	ErrSessionClosed = errors.New("core: session closed")
	// ErrServerReset is returned when the server answered with Rst (it
	// lost the connection state); the caller should re-dial.
	ErrServerReset = errors.New("core: server reset the connection")
	// ErrServerLeaving is returned when the server answered a write with
	// a Redirect drain hint: it is administratively leaving and will not
	// accept writes again. The caller should migrate, not retry.
	ErrServerLeaving = errors.New("core: server is leaving (redirected)")
)

// RemoteError is a server-reported call failure (TErrResp).
type RemoteError struct {
	Code    uint16
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("core: server error %d: %s", e.Code, e.Message)
}

// IsNotStored reports whether err is the server's "record not stored"
// answer.
func IsNotStored(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == wire.CodeNotStored
}

// IsTooLarge reports whether err is the server's "record stored but
// too large for one reply packet" answer. Unlike CodeNotStored, the
// server does hold the record.
func IsTooLarge(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == wire.CodeTooLarge
}

// session is the client's connection to one log server: handshake,
// synchronous calls with retry, asynchronous write streaming, and the
// acknowledgment state fed by the receive pump.
type session struct {
	addr string
	peer *wire.Peer

	callTimeout time.Duration
	retries     int

	// onRetry, when set, runs before each retransmission after a
	// timeout — the hook a dual-network endpoint uses to fail over to
	// its second network (Section 2's two-LAN arrangement).
	onRetry func()

	// onAck and onBusy are the streaming write pipeline's wakeups,
	// invoked (without s.mu held) after a write acknowledgment or a
	// TBusy congestion NACK is absorbed. Both are set before the
	// session is published to the log's session map and never change,
	// so deliver may read them without the lock.
	onAck  func()
	onBusy func()

	// ready is closed by the dialing goroutine once handshake() has
	// settled; hsErr (valid after ready) holds its result. Concurrent
	// dialers of the same address block on ready instead of being
	// handed a session whose handshake is still in flight.
	ready chan struct{}

	// initOp names the initialization whose dial created the session,
	// zero for any other dial: only that initialization may use what
	// the SynAck carried (see helloIntervals, helloEpoch). Set before
	// the session is published, never changed.
	initOp uint64

	mu    sync.Mutex
	cond  *sync.Cond
	hsErr error // handshake result; valid once ready is closed
	// hello is what the SynAck carried: the server's first reads,
	// each part handed out once (the taken flags), and only to initOp.
	hello                *wire.SynAckPayload
	ivsTaken, epochTaken bool
	ackedHigh            record.LSN // highest stable LSN acknowledged (NewHighLSN)
	// appendedHigh is the highest LSN the server reports appended (the
	// second field of a streamed write ack): the retransmission rewind
	// point — everything above it is presumed lost on a timeout.
	appendedHigh record.LSN
	sentHigh     record.LSN // highest LSN sent in this connection's stream
	// win is the sliding send window of the streaming write protocol
	// (see sendwindow.go), guarded by s.mu like the cursors above.
	win sendWindow
	// forcePoint is the LSN through which a pending force wants the
	// stream stamped: the streamer sends the frame covering it as a
	// ForceLog (or a bare ForcePoint when the tail is already streamed)
	// and clears it. Forces never bypass the send window — they mark
	// where the force lands and let the windowed pipeline carry it.
	forcePoint record.LSN
	pending    map[uint64]chan *wire.Packet
	// streams are multi-shot sinks for TReadStreamData chunks, keyed by
	// the request Seq like pending. Unlike pending entries they survive
	// multiple deliveries; deliver sends non-blocking under mu (the
	// channel is sized for the credit the stream's reader extends, so
	// drops only happen on protocol violations) and close/Rst close them
	// under the same mu, so a send can never race a close.
	streams map[uint64]chan *wire.Packet
	missing []wire.IntervalPayload // MissingInterval NACKs awaiting service
	reset   bool                   // server sent Rst: connection is dead
	// redirected records a TRedirect drain hint: the server is leaving
	// and will never accept this session's writes again. Unlike reset
	// the connection stays usable for reads.
	redirected bool
	closed     bool
}

func newSession(ep transport.Endpoint, addr string, clientID record.ClientID, connID uint64, window uint64, pause, callTimeout time.Duration, retries int) *session {
	s := &session{
		addr:        addr,
		peer:        wire.NewPeer(ep, addr, clientID, connID, window, pause),
		callTimeout: callTimeout,
		retries:     retries,
		ready:       make(chan struct{}),
		pending:     make(map[uint64]chan *wire.Packet),
		streams:     make(map[uint64]chan *wire.Packet),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// expect reserves the sequence number of the next request and
// registers ch to receive what answers it — one reply (a call, the
// handshake) or, with stream set, every chunk of a streaming read —
// before the request is sent: over a fast link the reply can reach the
// receive pump before Send has even returned, and an unregistered reply
// is dropped and costs a whole call timeout.
func (s *session) expect(ch chan *wire.Packet, stream bool) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return 0, ErrSessionClosed
	case s.reset:
		return 0, ErrServerReset
	}
	seq := s.peer.Reserve()
	if stream {
		s.streams[seq] = ch
	} else {
		s.pending[seq] = ch
	}
	return seq, nil
}

// forget withdraws a registration whose reply is no longer awaited.
func (s *session) forget(seq uint64) {
	s.mu.Lock()
	delete(s.pending, seq)
	s.mu.Unlock()
}

// handshake performs the client side of the three-way handshake: send
// Syn, await SynAck (via the receive pump), send Ack.
func (s *session) handshake() error {
	for attempt := 0; attempt <= s.retries; attempt++ {
		ch := make(chan *wire.Packet, 1)
		seq, err := s.expect(ch, false)
		if err != nil {
			return err
		}
		if err := s.peer.SendAs(seq, wire.TSyn, nil); err != nil {
			s.forget(seq)
			return err
		}

		timer := time.NewTimer(s.callTimeout)
		select {
		case pkt, ok := <-ch:
			timer.Stop()
			if ok && pkt.Type == wire.TSynAck {
				if h, err := wire.DecodeSynAckPayload(pkt.Payload); err == nil {
					s.mu.Lock()
					s.hello = h
					s.mu.Unlock()
				}
				s.peer.SetEstablished()
				s.peer.Send(wire.TAck, pkt.Seq, nil)
				return nil
			}
		case <-timer.C:
			s.forget(seq)
			if s.onRetry != nil {
				s.onRetry()
			}
		}
	}
	return fmt.Errorf("%w: handshake with %s", ErrCallTimeout, s.addr)
}

// helloIntervals hands the initialization op the interval-list page its
// handshake brought, once; ok is false for anyone else, or after the
// first taker, who must make the call.
func (s *session) helloIntervals(op uint64) (ivs []record.Interval, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if op == 0 || op != s.initOp || s.hello == nil || s.ivsTaken {
		return nil, false
	}
	s.ivsTaken = true
	return s.hello.Intervals, true
}

// helloEpoch is helloIntervals for the epoch-representative read: the
// value the SynAck carried, or the error the read call would return.
// ok is false when the caller must make the call.
func (s *session) helloEpoch(op uint64) (v uint64, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if op == 0 || op != s.initOp || s.hello == nil || s.epochTaken {
		return 0, false, nil
	}
	s.epochTaken = true
	switch s.hello.EpochState {
	case wire.HelloEpoch:
		return s.hello.Epoch, true, nil
	case wire.HelloNoEpochHost:
		return 0, true, &RemoteError{Code: wire.CodeBadRequest, Message: wire.NoEpochHostMessage}
	}
	return 0, false, nil // the server's read failed: the call reports why
}

// deliver routes one packet from the receive pump into the session.
func (s *session) deliver(pkt *wire.Packet) {
	if pkt.Type == wire.TRst {
		s.mu.Lock()
		s.reset = true
		for seq, ch := range s.pending {
			close(ch)
			delete(s.pending, seq)
		}
		for seq, ch := range s.streams {
			close(ch)
			delete(s.streams, seq)
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	if !s.peer.Observe(pkt) {
		return
	}
	switch {
	case pkt.Type == wire.TSynAck || pkt.RespTo != 0:
		s.mu.Lock()
		ch, ok := s.pending[pkt.RespTo]
		if ok {
			delete(s.pending, pkt.RespTo)
		}
		if !ok {
			// Not a one-shot call: a stream chunk, or an error reply to
			// a stream request. Sent non-blocking while holding mu — see
			// the streams field comment for why this cannot race a close.
			if sch, sok := s.streams[pkt.RespTo]; sok {
				cp := *pkt
				select {
				case sch <- &cp:
				default:
				}
			}
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		// Copy the packet so the pump's stack-allocated value never
		// escapes: only the infrequent RPC-response path pays a heap
		// allocation, keeping streamed acks allocation-free.
		cp := *pkt
		ch <- &cp
	case pkt.Type == wire.TNewHighLSN:
		// Decoded inline: the streamed-ack path runs continuously under
		// load and must not allocate. The stable mark is followed by the
		// appended high-water mark that advances the send window.
		if len(pkt.Payload) != 16 {
			return
		}
		stable := record.LSN(binary.BigEndian.Uint64(pkt.Payload[:8]))
		appended := record.LSN(binary.BigEndian.Uint64(pkt.Payload[8:]))
		s.mu.Lock()
		if stable > s.ackedHigh {
			s.ackedHigh = stable
		}
		if appended > s.appendedHigh {
			s.appendedHigh = appended
		}
		if s.win.ackThrough(appended) > 0 {
			// Progress under the current window: additive ramp-up.
			s.win.widen()
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		if s.onAck != nil {
			s.onAck()
		}
	case pkt.Type == wire.TBusy:
		// Congestion NACK: the server shed one of our write messages.
		// Halve the effective window and rewind the send cursor to the
		// appended mark — everything past it may have been shed — so the
		// streamer retransmits under the reduced window.
		s.mu.Lock()
		s.win.backoff()
		s.win.clear()
		if s.appendedHigh < s.sentHigh {
			s.sentHigh = s.appendedHigh
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		if s.onBusy != nil {
			s.onBusy()
		}
	case pkt.Type == wire.TRedirect:
		// Drain hint: the server is leaving. Wake the force waiters so
		// they move this session's writes elsewhere now instead of
		// timing out first; reads continue to work.
		s.mu.Lock()
		s.redirected = true
		s.cond.Broadcast()
		s.mu.Unlock()
	case pkt.Type == wire.TMissingInterval:
		p, err := wire.DecodeIntervalPayload(pkt.Payload)
		if err != nil {
			return
		}
		s.mu.Lock()
		s.missing = append(s.missing, *p)
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// call performs one synchronous RPC with retries. Operations are
// idempotent, so retrying after a lost request or reply is safe.
func (s *session) call(t wire.Type, payload []byte) (*wire.Packet, error) {
	c := rpc{t: t, payload: payload}
	if err := s.start(&c); err != nil {
		return nil, err
	}
	return s.finish(&c)
}

// rpc is one synchronous call in progress: what to (re)send, and where
// the current attempt's reply will arrive. A request embedding grouped
// records (recs non-nil: epoch + record list) goes through the peer's
// record-aware framer, which lets the envelope version reflect the
// records' needs: a dep-vectored recovery copy travels under the bumped
// wire version instead of hiding inside a base-version frame an old
// server would misjudge as safe.
type rpc struct {
	t       wire.Type
	payload []byte
	epoch   record.Epoch
	recs    []record.Record

	seq uint64
	ch  chan *wire.Packet
}

// start sends one attempt of the call without waiting for the reply;
// callers with several independent calls to one server start them all
// and then finish each, paying one round trip for the batch.
func (s *session) start(c *rpc) error {
	c.ch = make(chan *wire.Packet, 1)
	seq, err := s.expect(c.ch, false)
	if err != nil {
		return err
	}
	c.seq = seq
	if c.recs != nil {
		err = s.peer.SendRecordsAs(seq, c.t, c.epoch, c.recs)
	} else {
		err = s.peer.SendAs(seq, c.t, c.payload)
	}
	if err != nil {
		s.forget(seq)
	}
	return err
}

// finish awaits the reply to a started call, re-sending it on timeout
// up to the session's retry budget.
func (s *session) finish(c *rpc) (*wire.Packet, error) {
	for attempt := 0; ; attempt++ {
		timer := time.NewTimer(s.callTimeout)
		select {
		case pkt, ok := <-c.ch:
			timer.Stop()
			if !ok {
				// Channel closed by Rst or session shutdown.
				s.mu.Lock()
				reset := s.reset
				s.mu.Unlock()
				if reset {
					return nil, ErrServerReset
				}
				return nil, ErrSessionClosed
			}
			if pkt.Type == wire.TErrResp {
				ep, err := wire.DecodeErrPayload(pkt.Payload)
				if err != nil {
					return nil, err
				}
				return nil, &RemoteError{Code: ep.Code, Message: ep.Message}
			}
			return pkt, nil
		case <-timer.C:
			s.forget(c.seq)
		}
		if attempt == s.retries {
			return nil, fmt.Errorf("%w: %s to %s", ErrCallTimeout, c.t, s.addr)
		}
		// Lost request or reply: retry (operations are idempotent); a
		// dual-network endpoint fails over first.
		if s.onRetry != nil {
			s.onRetry()
		}
		if err := s.start(c); err != nil {
			return nil, err
		}
	}
}

// openStream sends a ReadStream request and returns the multi-shot
// sink its reply chunks arrive on, registered before the request
// leaves. window is the most chunks the caller will ever let the server
// run ahead of what it has taken from the sink (its credit discipline);
// the sink holds that many plus one error reply, so the non-blocking
// deliver never drops a legitimate chunk. The caller consumes packets
// from the channel (a closed channel means the session died) and must
// closeStream when finished.
func (s *session) openStream(req *wire.ReadStreamPayload, window int) (uint64, chan *wire.Packet, error) {
	ch := make(chan *wire.Packet, window+1)
	seq, err := s.expect(ch, true)
	if err != nil {
		return 0, nil, err
	}
	if err := s.peer.SendAs(seq, wire.TReadStreamReq, req.Encode()); err != nil {
		s.closeStream(seq)
		return 0, nil, err
	}
	return seq, ch, nil
}

// closeStream unregisters a stream sink. Chunks still in flight are
// dropped by deliver once the entry is gone.
func (s *session) closeStream(seq uint64) {
	s.mu.Lock()
	if ch, ok := s.streams[seq]; ok {
		delete(s.streams, seq)
		close(ch)
	}
	s.mu.Unlock()
}

// takeMissing removes and returns any queued MissingInterval NACKs.
func (s *session) takeMissing() []wire.IntervalPayload {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.missing
	s.missing = nil
	return m
}

// waitAck blocks until the server has acknowledged lsn, the deadline
// passes, a MissingInterval arrives (the caller must service it), or
// the session dies.
func (s *session) waitAck(lsn record.LSN, deadline time.Time) (acked bool, nacked bool, err error) {
	var timer *time.Timer
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch {
		case s.ackedHigh >= lsn:
			return true, false, nil
		case len(s.missing) > 0:
			return false, true, nil
		case s.closed:
			return false, false, ErrSessionClosed
		case s.reset:
			return false, false, ErrServerReset
		case s.redirected:
			return false, false, ErrServerLeaving
		case !time.Now().Before(deadline):
			return false, false, nil
		}
		if timer == nil {
			// The timer only wakes the cond wait at the deadline; the
			// fast path — ack already arrived — never allocates it.
			timer = time.AfterFunc(time.Until(deadline), func() {
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			})
			defer timer.Stop()
		}
		s.cond.Wait()
	}
}

// close shuts the session down locally.
func (s *session) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for seq, ch := range s.pending {
		close(ch)
		delete(s.pending, seq)
	}
	for seq, ch := range s.streams {
		close(ch)
		delete(s.streams, seq)
	}
	s.cond.Broadcast()
}
