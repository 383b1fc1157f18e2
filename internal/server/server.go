// Package server implements a log server node: the network-facing half
// of the design in Section 4. A server owns a storage.Store, speaks the
// wire protocol of Section 4.2 with any number of clients, detects
// gaps in each client's write stream (MissingInterval), acknowledges
// forces (NewHighLSN), answers the synchronous calls (IntervalList,
// ReadLogForward/Backward, CopyLog, InstallCopies), hosts an epoch
// generator state representative (Appendix I), and sheds load by
// ignoring write messages when overloaded.
//
// Internally the server is a write pipeline: the receive loop only
// decodes and dispatches; each session owns a worker goroutine with a
// bounded queue, so a client stuck in a slow synchronous read cannot
// delay another client's ForceLog acknowledgment. Concurrent forces
// from different sessions coalesce into shared rounds (group force)
// via a storage.ForceGroup.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distlog/internal/faultpoint"
	"distlog/internal/idgen"
	"distlog/internal/record"
	"distlog/internal/storage"
	"distlog/internal/telemetry"
	"distlog/internal/transport"
	"distlog/internal/wire"
)

// EpochHost supplies the epoch-generator state representative the
// server hosts for each client (Appendix I: "representatives of a
// replicated identifier generator's state will normally be implemented
// on log server nodes").
type EpochHost interface {
	Rep(c record.ClientID) idgen.Representative
}

// MemEpochHost keeps representatives in memory.
type MemEpochHost struct {
	mu   sync.Mutex
	reps map[record.ClientID]*idgen.MemRep
}

// NewMemEpochHost returns an empty in-memory epoch host.
func NewMemEpochHost() *MemEpochHost {
	return &MemEpochHost{reps: make(map[record.ClientID]*idgen.MemRep)}
}

// Rep implements EpochHost.
func (h *MemEpochHost) Rep(c record.ClientID) idgen.Representative {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.reps[c]
	if r == nil {
		r = idgen.NewMemRep()
		h.reps[c] = r
	}
	return r
}

// Pipeline defaults.
const (
	// DefaultQueueDepth bounds each session's pending-message queue.
	DefaultQueueDepth = 64
	// DefaultSessionIdle is how long a session may sit idle before the
	// janitor evicts it.
	DefaultSessionIdle = 2 * time.Minute
)

// Config configures a Server.
type Config struct {
	// Name is the server's network address (the endpoint it listens
	// on was bound to it).
	Name string
	// Store holds the log data.
	Store storage.Store
	// Endpoint is the server's network attachment.
	Endpoint transport.Endpoint
	// Epochs hosts generator state representatives. Nil disables the
	// epoch operations (clients must use other representatives).
	Epochs EpochHost
	// Overloaded, when non-nil and returning true, makes the server
	// silently ignore WriteLog and ForceLog messages ("they are free to
	// ignore ForceLog and WriteLog messages if they become too heavily
	// loaded. Clients will simply assume that the server has failed and
	// will take their logging elsewhere.").
	Overloaded func() bool
	// Window and OverAllocPause tune the flow-control parameters.
	Window         uint64
	OverAllocPause time.Duration
	// QueueDepth bounds each session's pending-message queue. A full
	// queue sheds further messages for that session — the Section 4.2
	// license to ignore messages under load, applied per client, so one
	// slow or flooding client backs up only its own queue. Zero means
	// DefaultQueueDepth.
	QueueDepth int
	// SessionIdle is how long a session may sit idle before the server
	// evicts it, reclaiming its worker and queue. Zero means
	// DefaultSessionIdle; negative disables idle eviction.
	SessionIdle time.Duration
	// Telemetry receives the server's metrics (and, if the registry has
	// tracing enabled, its LSN-lifecycle events). Nil directs metrics to
	// a private registry so Stats() keeps working.
	Telemetry *telemetry.Registry
}

// Stats is a snapshot of server activity — a view over the telemetry
// counters (see metrics.go).
type Stats struct {
	PacketsReceived  uint64
	PacketsDropped   uint64 // undecodable or stale
	RecordsWritten   uint64
	Forces           uint64
	AcksSent         uint64
	MissingIntervals uint64
	ReadsServed      uint64
	// StreamsServed counts ReadStream requests answered with at least
	// one chunk; StreamPackets counts the chunks.
	StreamsServed uint64
	StreamPackets uint64
	Shed          uint64
	// BusySent counts Busy congestion NACKs sent to shed writers
	// (rate-limited, so at most one per session per millisecond of
	// shedding).
	BusySent uint64
	// RedirectsSent counts drain hints sent while leaving; Leaving
	// reports whether the server is currently draining (see Leave).
	RedirectsSent uint64
	Leaving       bool
	// Sessions is the current live session count; Evicted counts
	// sessions removed by supersession or idleness. QueueSheds counts
	// messages dropped because a session's queue was full. ForceRounds
	// and ForcesCoalesced describe group-force behaviour: underlying
	// store forces run, and callers that shared another caller's round.
	Sessions        int64
	Evicted         uint64
	QueueSheds      uint64
	ForceRounds     uint64
	ForcesCoalesced uint64
}

// Server is a log server node.
type Server struct {
	cfg Config

	mu sync.Mutex
	// sessions is keyed by (client network address, ClientID): the
	// streams of a multi-stream client share one endpoint (one address)
	// but carry distinct derived ClientIDs, and each stream gets its own
	// session — its own expected-next position, send window peer, and
	// acker marks.
	sessions map[sessionKey]*session
	stopped  bool

	wg       sync.WaitGroup // receive loop
	workerWG sync.WaitGroup // session workers + janitor
	quit     chan struct{}  // closed on shutdown; stops the janitor
	m        *serverMetrics

	// fg coalesces concurrent Store.Force calls from different session
	// workers into shared rounds (server-side group force).
	fg *storage.ForceGroup

	// leaving marks an administrative drain (see Leave): writes draw a
	// Redirect hint instead of being appended, reads and the epoch
	// operations keep working so clients can migrate off and still
	// recover records this server holds.
	leaving atomic.Bool

	// firstUnforced is when the oldest not-yet-forced record was
	// appended, as UnixNano (zero when everything is forced). Session
	// workers append and force concurrently, so it is atomic: CAS from
	// zero on append, Swap to zero when a force completes.
	firstUnforced atomic.Int64
}

// work is one dispatched packet: the decoded message plus the raw
// datagram it aliases, released when the handler finishes with it.
type work struct {
	raw transport.Packet
	pkt wire.Packet
}

// sessionKey identifies one session: the client's network address plus
// its (possibly stream-derived) ClientID.
type sessionKey struct {
	addr   string
	client record.ClientID
}

// session is the per-client connection state. Its fields past the
// queue are owned by the session's worker goroutine except where noted;
// the receive loop only enqueues (and the peer is internally
// synchronized).
type session struct {
	addr     string
	peer     *wire.Peer
	clientID record.ClientID

	queue      chan work
	quit       chan struct{}
	stopOnce   sync.Once
	lastActive atomic.Int64 // UnixNano of the last packet dispatched

	// expectedNext is the next LSN the server expects in this client's
	// write stream; 0 until the first write of the connection arrives.
	// Gap detection (MissingInterval) compares against it. Worker-owned.
	expectedNext record.LSN

	// reads are the streaming reads parked on the client's credit, keyed
	// by the Seq of the request that opened each. Worker-owned.
	reads map[uint64]*readStream

	// Streaming-ack state shared between the worker (producer) and the
	// session's acker goroutine (consumer). appendedHigh is the highest
	// LSN appended to the store for this client's stream; stableHigh the
	// highest LSN covered by a completed force and acknowledged;
	// forceReq records an explicit client force request (ForceLog /
	// ForcePoint) and reack a full-overlap retransmission whose original
	// ack was evidently lost. ackEpoch stamps trace events with the
	// epoch of the latest write.
	appendedHigh atomic.Uint64
	stableHigh   atomic.Uint64
	forceReq     atomic.Bool
	reack        atomic.Bool
	ackEpoch     atomic.Uint64
	kick         chan struct{} // 1-buffered acker wakeup
	lastBusy     atomic.Int64  // UnixNano of the last TBusy sent (rate limit)
	lastRedirect atomic.Int64  // UnixNano of the last TRedirect sent (rate limit)
}

// stop signals the session's worker and acker to exit; idempotent.
func (sess *session) stop() {
	sess.stopOnce.Do(func() { close(sess.quit) })
}

// kickAcker wakes the session's acker without blocking; a pending kick
// already covers this wakeup.
func (sess *session) kickAcker() {
	select {
	case sess.kick <- struct{}{}:
	default:
	}
}

// New creates a server; call Start to begin serving.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.SessionIdle == 0 {
		cfg.SessionIdle = DefaultSessionIdle
	}
	s := &Server{
		cfg:      cfg,
		sessions: make(map[sessionKey]*session),
		quit:     make(chan struct{}),
		m:        newServerMetrics(cfg.Telemetry, cfg.Name),
	}
	s.fg = storage.NewForceGroup(cfg.Store.Force)
	s.fg.Rounds = s.m.forceRounds
	s.fg.Coalesced = s.m.forcesCoalesced
	s.fg.Handoff = func() { faultpoint.Hit(FPForceBetweenCoalesced) }
	return s
}

// Start launches the receive loop (and, unless disabled, the idle
// janitor).
func (s *Server) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.loop()
	}()
	if s.cfg.SessionIdle > 0 {
		s.workerWG.Add(1)
		go s.janitor()
	}
}

// Stop closes the endpoint and waits for the receive loop, all session
// workers, and the janitor to exit. The store is not closed; it belongs
// to the caller (which may restart a server over it, modelling a node
// reboot).
func (s *Server) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		s.wg.Wait()
		s.workerWG.Wait()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	s.cfg.Endpoint.Close()
	s.wg.Wait() // the loop's shutdown stops sessions and the janitor
	s.workerWG.Wait()
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats {
	st := s.m.stats()
	st.Leaving = s.leaving.Load()
	return st
}

// Leave begins an administrative drain: the server stops accepting
// writes — each write draws a TRedirect hint telling the client to
// migrate its write set — while reads, interval lists, and the epoch
// representative keep answering, so departing clients can still obtain
// fresh epochs and read the records this server holds. Every live
// session is notified immediately; the server stays up until the
// operator observes its clients gone (Stats().Sessions, or the
// per-node session gauge) and calls Stop.
func (s *Server) Leave() {
	if s.leaving.Swap(true) {
		return // already draining
	}
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		s.sendRedirect(sess)
	}
}

// Leaving reports whether the server is draining.
func (s *Server) Leaving() bool {
	return s.leaving.Load()
}

func (s *Server) loop() {
	defer s.shutdown()
	for {
		raw, err := s.cfg.Endpoint.Recv(0)
		if err != nil {
			return // endpoint closed
		}
		s.m.packetsReceived.Add(1)
		pkt, err := wire.Decode(raw.Data)
		if err != nil {
			// Corrupt packet: the end-to-end check rejects it; the
			// sender's own recovery (retry, NACK) handles the loss.
			s.m.packetsDropped.Add(1)
			raw.Release()
			continue
		}
		s.dispatch(raw, pkt)
	}
}

// shutdown quiesces the pipeline after the receive loop exits (Stop,
// or the endpoint closed under it — how tests model a node crash):
// every session worker is told to quit, and the janitor with them.
func (s *Server) shutdown() {
	s.mu.Lock()
	s.stopped = true
	for _, sess := range s.sessions {
		sess.stop()
	}
	s.sessions = make(map[sessionKey]*session)
	s.m.sessions.Set(0)
	s.m.nodeSessions.Set(0)
	s.mu.Unlock()
	close(s.quit)
}

// dispatch routes one decoded packet. Syn is handled inline (it is
// session lifecycle); everything else — and the Syn's answer — goes to
// the owning session's queue. The decoded packet aliases raw's buffer,
// which is released once the handler — or the shed path — is done with
// it.
func (s *Server) dispatch(raw transport.Packet, pkt wire.Packet) {
	if pkt.Type == wire.TSyn {
		s.handleSyn(raw, pkt)
		return
	}

	s.mu.Lock()
	sess := s.sessions[sessionKey{raw.From, pkt.ClientID}]
	s.mu.Unlock()

	if sess == nil || pkt.ConnID != sess.peer.ConnID {
		// Unknown connection or stale incarnation: ask the client to
		// handshake. The stateless reset echoes the offending ConnID so
		// the client can tell which incarnation was rejected, and builds
		// no per-connection state — stray or scanning packets cost one
		// pooled frame each.
		s.m.packetsDropped.Add(1)
		wire.SendRst(s.cfg.Endpoint, raw.From, pkt.ClientID, pkt.ConnID, pkt.Seq)
		raw.Release()
		return
	}
	sess.lastActive.Store(time.Now().UnixNano())
	select {
	case sess.queue <- work{raw: raw, pkt: pkt}:
	default:
		// This session's queue is full: shed. The client's own timeout
		// and retry machinery recovers, exactly as for a lost datagram;
		// other sessions' queues are unaffected. Shed writes additionally
		// draw a Busy NACK so a streaming client backs its window off now
		// instead of waiting out a force timeout.
		s.m.queueSheds.Add(1)
		s.m.trace.Emit(telemetry.EvShed, s.m.node, 0, 0, 0)
		switch pkt.Type {
		case wire.TWriteLog, wire.TForceLog, wire.TForcePoint:
			s.sendBusy(sess)
		}
		raw.Release()
	}
}

// handleSyn creates, refreshes, or supersedes a session. It runs on
// the receive loop: session lifecycle must serialize with dispatch.
// The SynAck carries reads of the store and the epoch host, which may
// block, so the Syn is queued to the session's worker to answer (see
// handleHello) — as the first item of a new session's queue, behind the
// same client's earlier packets for a live one.
func (s *Server) handleSyn(raw transport.Packet, pkt wire.Packet) {
	from := raw.From
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		raw.Release()
		return
	}
	key := sessionKey{from, pkt.ClientID}
	sess := s.sessions[key]
	if sess != nil && pkt.ConnID == sess.peer.ConnID {
		// Retransmitted or network-duplicated Syn of the live
		// incarnation: answer it, but keep the session. Resetting
		// here would zero the stream position, and the next write
		// would silently adopt the client's current LSN — forgetting
		// a gap the server was tracking and acknowledging records it
		// never stored.
		sess.lastActive.Store(time.Now().UnixNano())
		s.mu.Unlock()
		select {
		case sess.queue <- work{raw: raw, pkt: pkt}:
		default:
			// A full queue sheds the retransmission like any other
			// packet; the client retries its handshake.
			s.m.queueSheds.Add(1)
			raw.Release()
		}
		return
	}
	if sess != nil && pkt.ConnID < sess.peer.ConnID {
		// A delayed duplicate Syn from an incarnation this session has
		// already superseded (ConnIDs grow monotonically within a
		// client). Evicting the live session for it would resurrect the
		// dead incarnation and reset the live one's stream position —
		// e.g. a client re-anchoring on a server during a migration,
		// whose old Syn was still in flight. Reset the stale sender and
		// leave the live session untouched.
		s.mu.Unlock()
		s.m.packetsDropped.Add(1)
		wire.SendRst(s.cfg.Endpoint, from, pkt.ClientID, pkt.ConnID, pkt.Seq)
		raw.Release()
		return
	}
	// New connection (or a new incarnation of the client): evict what
	// it supersedes — the old session at this address, and any session
	// for the same client at another address with a strictly older
	// ConnID (the client rebound its socket; ConnIDs derive from
	// epochs, so older means an earlier incarnation — this is the leak
	// a reconnecting client's abandoned source ports used to leave
	// behind). An equal ConnID at a different address is the client's
	// other leg of a dual endpoint: keep it. Stream position is
	// re-learned from the first write; log data itself lives in the
	// store and is unaffected.
	if sess != nil {
		s.evictLocked(sess)
	}
	for k, old := range s.sessions {
		if k.addr != from && old.clientID == pkt.ClientID && old.peer.ConnID < pkt.ConnID {
			s.evictLocked(old)
		}
	}
	sess = &session{
		addr:     from,
		peer:     wire.NewPeer(s.cfg.Endpoint, from, pkt.ClientID, pkt.ConnID, s.cfg.Window, pauseOf(s.cfg)),
		clientID: pkt.ClientID,
		queue:    make(chan work, s.cfg.QueueDepth),
		quit:     make(chan struct{}),
		kick:     make(chan struct{}, 1),
	}
	sess.lastActive.Store(time.Now().UnixNano())
	sess.peer.SetEstablished()
	sess.queue <- work{raw: raw, pkt: pkt} // the empty queue's first item
	s.sessions[key] = sess
	s.m.sessions.Set(int64(len(s.sessions)))
	s.m.nodeSessions.Set(int64(len(s.sessions)))
	s.workerWG.Add(2)
	go s.worker(sess)
	go s.acker(sess)
	s.mu.Unlock()
}

// handleHello answers a Syn on the session's worker. The SynAck
// carries the client's newest interval-list page and its epoch
// representative's value — the first reads a restarting client makes —
// taken now, after handleSyn retired any session this one superseded.
func (s *Server) handleHello(sess *session, pkt *wire.Packet) {
	resp := wire.SynAckPayload{Intervals: intervalPage(s.cfg.Store.Intervals(sess.clientID), 0, wire.MaxHelloIntervals)}
	if s.cfg.Epochs == nil {
		resp.EpochState = wire.HelloNoEpochHost
	} else if v, err := s.cfg.Epochs.Rep(sess.clientID).ReadState(); err != nil {
		resp.EpochState = wire.HelloEpochUnread
	} else {
		resp.Epoch = v
	}
	sess.peer.Send(wire.TSynAck, pkt.Seq, resp.Encode())
}

// intervalPage is the page of up to size intervals just older than the
// skip most recent ones. Interval lists are short by design ("an
// essential assumption of the replicated logging algorithm is that
// interval lists are short"); a list that outgrows a packet anyway is
// served a page at a time, the most recent intervals — the ones
// initialization needs first — on the first page. The encoding is
// fixed-width, so a page is a slice.
func intervalPage(ivs []record.Interval, skip uint32, size int) []record.Interval {
	end := max(0, len(ivs)-int(skip))
	return ivs[max(0, end-size):end]
}

// evictLocked removes a session and stops its worker. Callers hold
// s.mu and refresh the sessions gauge afterwards.
func (s *Server) evictLocked(sess *session) {
	delete(s.sessions, sessionKey{sess.addr, sess.clientID})
	sess.stop()
	s.m.sessionsEvicted.Add(1)
}

// janitor evicts sessions idle longer than SessionIdle, bounding the
// session map (and its goroutines) against clients that vanish without
// a closing handshake — UDP has none.
func (s *Server) janitor() {
	defer s.workerWG.Done()
	tick := s.cfg.SessionIdle / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			cutoff := time.Now().Add(-s.cfg.SessionIdle).UnixNano()
			s.mu.Lock()
			for _, sess := range s.sessions {
				if sess.lastActive.Load() < cutoff {
					s.evictLocked(sess)
				}
			}
			s.m.sessions.Set(int64(len(s.sessions)))
			s.m.nodeSessions.Set(int64(len(s.sessions)))
			s.mu.Unlock()
		}
	}
}

// worker drains one session's queue. A single consumer per session
// preserves each client's stream order; separate workers keep one
// client's slow synchronous read out of every other client's force
// path.
func (s *Server) worker(sess *session) {
	defer s.workerWG.Done()
	for {
		select {
		case <-sess.quit:
			// Drain, releasing buffers: dispatch may already have
			// enqueued packets this worker will never handle.
			for {
				select {
				case w := <-sess.queue:
					w.raw.Release()
				default:
					return
				}
			}
		case w := <-sess.queue:
			if w.pkt.Type == wire.TForceLog || w.pkt.Type == wire.TForcePoint {
				faultpoint.Hit(FPWorkerBeforeForce)
			}
			s.process(sess, &w.pkt)
			w.raw.Release()
		}
	}
}

// process handles one packet on the session's worker.
func (s *Server) process(sess *session, pkt *wire.Packet) {
	if !sess.peer.Observe(pkt) {
		s.m.packetsDropped.Add(1)
		return
	}

	switch pkt.Type {
	case wire.TSyn:
		s.handleHello(sess, pkt)
	case wire.TAck:
		// Final leg of the handshake; nothing further to do.
	case wire.TWriteLog:
		s.handleWrite(sess, pkt, false)
	case wire.TForceLog:
		s.handleWrite(sess, pkt, true)
	case wire.TForcePoint:
		s.handleForcePoint(sess, pkt)
	case wire.TTruncatePoint:
		s.handleTruncatePoint(sess, pkt)
	case wire.TNewInterval:
		s.handleNewInterval(sess, pkt)
	case wire.TIntervalListReq:
		s.handleIntervalList(sess, pkt)
	case wire.TReadForwardReq:
		s.handleRead(sess, pkt, true)
	case wire.TReadBackwardReq:
		s.handleRead(sess, pkt, false)
	case wire.TReadStreamReq:
		s.handleReadStream(sess, pkt)
	case wire.TReadCredit:
		s.handleReadCredit(sess, pkt)
	case wire.TCopyLogReq:
		s.handleCopyLog(sess, pkt)
	case wire.TInstallCopiesReq:
		s.handleInstallCopies(sess, pkt)
	case wire.TEpochReadReq:
		s.handleEpochRead(sess, pkt)
	case wire.TEpochWriteReq:
		s.handleEpochWrite(sess, pkt)
	case wire.TTruncateReq:
		s.handleTruncate(sess, pkt)
	default:
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, fmt.Sprintf("unexpected packet type %s", pkt.Type))
	}
}

func pauseOf(cfg Config) time.Duration { return cfg.OverAllocPause }

// handleWrite applies a WriteLog or ForceLog message: gap detection,
// idempotent skip of retransmitted records, store appends, and (for
// forces) the NewHighLSN acknowledgment.
func (s *Server) handleWrite(sess *session, pkt *wire.Packet, force bool) {
	if s.leaving.Load() {
		// Draining: refuse the write with a redirect hint so the client
		// migrates. Not a Busy — backing off and retrying here can never
		// succeed.
		s.sendRedirect(sess)
		return
	}
	if s.cfg.Overloaded != nil && s.cfg.Overloaded() {
		// Shed load: ignore the message ("they are free to ignore
		// ForceLog and WriteLog messages if they become too heavily
		// loaded"), but tell the streaming client with a Busy NACK so
		// its send window halves instead of retry-storming.
		s.m.sheds.Add(1)
		s.m.trace.Emit(telemetry.EvShed, s.m.node, 0, 0, 0)
		s.sendBusy(sess)
		return
	}
	p, err := wire.DecodeRecordsPayload(pkt.Payload)
	if err != nil || len(p.Records) == 0 {
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, "bad records payload")
		return
	}
	first := p.Records[0].LSN

	if sess.expectedNext == 0 {
		// First write of this connection: resume from the store's
		// position, not the packet's. Blindly adopting the packet's
		// first LSN would let a message that arrived ahead of (or
		// instead of) its lost predecessors skip them silently — the
		// server would go on to acknowledge a NewHighLSN covering
		// records it never stored. A jump past the stored position is
		// a gap like any other: NACK it, and the client resends the
		// records (still buffered — that is what δ guarantees) or
		// explicitly starts a new interval.
		if last, _ := s.cfg.Store.LastKey(sess.clientID); last == 0 || first <= last+1 {
			sess.expectedNext = first
		} else {
			sess.expectedNext = last + 1
		}
	}
	if first > sess.expectedNext {
		// Lost message(s): NACK promptly with the missing interval and
		// ignore these records — the client resends from the gap or
		// starts a new interval.
		s.m.nacksSent.Add(1)
		s.m.trace.Emit(telemetry.EvNack, s.m.node,
			uint64(sess.expectedNext), uint64(p.Epoch), uint64(first-sess.expectedNext))
		mi := wire.IntervalPayload{Low: sess.expectedNext, High: first - 1}
		sess.peer.Send(wire.TMissingInterval, 0, mi.Encode())
		return
	}

	appended := 0
	for _, rec := range p.Records {
		if rec.LSN < sess.expectedNext {
			continue // retransmission overlap: already stored
		}
		if rec.LSN > sess.expectedNext {
			// Non-contiguous records inside one message: the client
			// never sends this; reject defensively.
			sess.peer.SendErr(pkt.Seq, wire.CodeSequencing, "records within a message must be consecutive")
			return
		}
		err := s.cfg.Store.Append(sess.clientID, rec)
		switch {
		case err == nil:
			s.m.recordsAppended.Add(1)
			appended++
		case errors.Is(err, record.ErrDuplicate), errors.Is(err, record.ErrLSNRegression):
			// A replay after a server restart: the store already holds
			// the record; advancing past it is the idempotent outcome.
		case errors.Is(err, record.ErrEpochRegression), errors.Is(err, record.ErrZero):
			// The record itself breaks the Section 3.1.1 rules (a stale
			// incarnation's frame, a malformed one): nothing to steer the
			// sender elsewhere for.
			sess.peer.SendErr(pkt.Seq, wire.CodeSequencing, err.Error())
			return
		default:
			// The store cannot take the record (a full disk, a failed
			// device). A streamed write has no call awaiting an error
			// reply — the client would retransmit into the same wall
			// forever — so refuse as a draining server does: the client
			// moves its writes elsewhere, reads keep being served.
			s.sendRedirect(sess)
			return
		}
		sess.expectedNext = rec.LSN + 1
	}
	if appended > 0 {
		if s.m.appendToForce != nil {
			s.firstUnforced.CompareAndSwap(0, time.Now().UnixNano())
		}
		s.m.trace.Emit(telemetry.EvAppend, s.m.node,
			uint64(sess.expectedNext-1), uint64(p.Epoch), uint64(appended))
	}
	sess.ackEpoch.Store(uint64(p.Epoch))
	// Publish the appended high-water mark to the acker. The store
	// appends above happen-before this release store, so a force the
	// acker starts after loading it covers every record up to the mark.
	if h := uint64(sess.expectedNext - 1); h > sess.appendedHigh.Load() {
		sess.appendedHigh.Store(h)
	}

	if force {
		faultpoint.Hit(FPWriteBeforeForce)
		sess.forceReq.Store(true)
	} else if appended == 0 {
		// A full-overlap retransmission of a streamed write means the
		// client missed our cumulative ack: have the acker repeat it.
		sess.reack.Store(true)
	}
	// The acker forces in the background — coalescing across sessions —
	// and sends the cumulative NewHighLSN. Appends without a force flag
	// kick it too: continuously advancing stability is what lets the
	// streaming client release records (and cross force points) without
	// a round trip per force.
	sess.kickAcker()
}

// handleForcePoint applies a ForcePoint message — the streaming
// client's "force through this LSN and acknowledge" for records that
// already left under WriteLog cover. A force point at or beyond what
// this server has appended means the covering records were lost in
// flight: NACK the gap so the client retransmits.
func (s *Server) handleForcePoint(sess *session, pkt *wire.Packet) {
	if s.leaving.Load() {
		s.sendRedirect(sess)
		return
	}
	if s.cfg.Overloaded != nil && s.cfg.Overloaded() {
		s.m.sheds.Add(1)
		s.m.trace.Emit(telemetry.EvShed, s.m.node, 0, 0, 0)
		s.sendBusy(sess)
		return
	}
	p, err := wire.DecodeLSNPayload(pkt.Payload)
	if err != nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, "bad force point payload")
		return
	}
	if sess.expectedNext == 0 {
		// First message of this connection: resume from the store's
		// position, as handleWrite does.
		last, _ := s.cfg.Store.LastKey(sess.clientID)
		sess.expectedNext = last + 1
		if h := uint64(last); h > sess.appendedHigh.Load() {
			sess.appendedHigh.Store(h)
		}
	}
	if p.LSN >= sess.expectedNext {
		s.m.nacksSent.Add(1)
		s.m.trace.Emit(telemetry.EvNack, s.m.node,
			uint64(sess.expectedNext), sess.ackEpoch.Load(), uint64(p.LSN-sess.expectedNext+1))
		mi := wire.IntervalPayload{Low: sess.expectedNext, High: p.LSN}
		sess.peer.Send(wire.TMissingInterval, 0, mi.Encode())
		return
	}
	faultpoint.Hit(FPWriteBeforeForce)
	sess.forceReq.Store(true)
	sess.kickAcker()
}

// acker is the per-session stability engine of the streaming write
// protocol: it runs this session's forces in the background —
// coalescing with other sessions through the server's ForceGroup — and
// sends the cumulative NewHighLSN acknowledgement. Moving the force
// off the worker keeps appends flowing while the store syncs, which is
// what lets a client stream continuously. The acked ⇒ durable
// invariant holds because stableHigh only advances to a mark loaded
// *before* a force that completed after it: every record at or below
// the mark was in the store when that force began (the ForceGroup
// started-after guarantee, plus the worker's publish ordering).
func (s *Server) acker(sess *session) {
	defer s.workerWG.Done()
	for {
		select {
		case <-sess.quit:
			return
		case <-sess.kick:
		}
		for {
			h := sess.appendedHigh.Load()
			force := sess.forceReq.Swap(false)
			reack := sess.reack.Swap(false)
			if h <= sess.stableHigh.Load() && !force {
				if !reack {
					break
				}
				// Lost-ack retransmission with nothing new to force:
				// repeat the cumulative ack as it stands.
				s.m.acksSent.Add(1)
				sess.peer.SendWriteAck(0, record.LSN(sess.stableHigh.Load()), record.LSN(h))
				continue
			}
			faultpoint.Hit(FPAckerBeforeForce)
			// Timestamps feed the latency histograms only; without a
			// registry they are dead weight on the hottest server loop.
			var forceStart time.Time
			if s.m.forceLatency != nil {
				forceStart = time.Now()
			}
			if err := s.fg.Force(); err != nil {
				// The store cannot force, so no truthful ack is possible.
				// Surface the failure rather than going silent; the client
				// times out and takes its logging elsewhere.
				sess.peer.SendErr(0, wire.CodeUnknown, err.Error())
				break
			}
			faultpoint.Hit(FPWriteAfterForce)
			s.m.forces.Add(1)
			if s.m.forceLatency != nil {
				s.m.forceLatency.Observe(uint64(time.Since(forceStart)))
			}
			if s.m.appendToForce != nil {
				if t := s.firstUnforced.Swap(0); t != 0 {
					s.m.appendToForce.Observe(uint64(time.Now().UnixNano() - t))
				}
			}
			if h > sess.stableHigh.Load() {
				sess.stableHigh.Store(h)
			}
			epoch := sess.ackEpoch.Load()
			s.m.trace.Emit(telemetry.EvForce, s.m.node, h, epoch, 0)
			// Emit before the packet leaves (like the client's flush): the
			// client may complete its round — and emit EvStable — the
			// moment the ack is delivered, and the trace guarantees
			// ack < stable.
			s.m.acksSent.Add(1)
			s.m.trace.Emit(telemetry.EvAck, s.m.node, h, epoch, 0)
			sess.peer.SendWriteAck(0, record.LSN(h), record.LSN(sess.appendedHigh.Load()))
		}
	}
}

// sendBusy tells the client the server is shedding its writes so its
// send window backs off now instead of after a force timeout.
// Rate-limited: one Busy per session per millisecond covers a whole
// burst of sheds. Safe from both the receive loop and workers.
func (s *Server) sendBusy(sess *session) {
	now := time.Now().UnixNano()
	last := sess.lastBusy.Load()
	if now-last < int64(time.Millisecond) || !sess.lastBusy.CompareAndSwap(last, now) {
		return
	}
	s.m.busySent.Add(1)
	sess.peer.Send(wire.TBusy, 0, nil)
}

// sendRedirect tells the client this server is draining and its writes
// should go elsewhere. Rate-limited like Busy — a streaming client can
// have a whole window in flight when the drain begins. Safe from both
// the receive loop and workers.
func (s *Server) sendRedirect(sess *session) {
	now := time.Now().UnixNano()
	last := sess.lastRedirect.Load()
	if now-last < int64(time.Millisecond) || !sess.lastRedirect.CompareAndSwap(last, now) {
		return
	}
	s.m.redirectsSent.Add(1)
	p := wire.RedirectPayload{AppendedHigh: record.LSN(sess.appendedHigh.Load())}
	sess.peer.Send(wire.TRedirect, 0, p.Encode())
}

func (s *Server) handleNewInterval(sess *session, pkt *wire.Packet) {
	p, err := wire.DecodeNewIntervalPayload(pkt.Payload)
	if err != nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, "bad NewInterval payload")
		return
	}
	// The client tells us to ignore the missing records and accept a
	// stream restarting at StartingLSN (they were written to other
	// servers).
	sess.expectedNext = p.StartingLSN
}

func (s *Server) handleIntervalList(sess *session, pkt *wire.Packet) {
	req, err := wire.DecodeIntervalListReqPayload(pkt.Payload)
	if err != nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, "bad interval list request")
		return
	}
	ivs := intervalPage(s.cfg.Store.Intervals(sess.clientID), req.Skip, wire.MaxIntervalsPerPacket)
	resp := wire.IntervalListPayload{Intervals: ivs}
	sess.peer.Send(wire.TIntervalListResp, pkt.Seq, resp.Encode())
}

// handleRead serves ReadLogForward / ReadLogBackward: starting at the
// requested LSN, it packs as many consecutive stored records as fit in
// one reply packet, ascending or descending.
func (s *Server) handleRead(sess *session, pkt *wire.Packet, forward bool) {
	req, err := wire.DecodeLSNPayload(pkt.Payload)
	if err != nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, "bad read payload")
		return
	}
	faultpoint.Hit(FPReadBeforeStore)
	to := record.LSN(1)
	if forward {
		to = ^record.LSN(0)
	}
	recs, err := s.cfg.Store.ReadRange(sess.clientID, req.LSN, to, wire.MaxPayload)
	if err != nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeNotStored, fmt.Sprintf("LSN %d not stored", req.LSN))
		return
	}
	recs = recs[:wire.FitRecords(recs)]
	if len(recs) == 0 {
		// The record exists but cannot fit even alone in a reply
		// packet. Answering CodeNotStored here would lie — the client
		// would conclude this server holds nothing at the LSN and could
		// fail a recovery that the data on this server should satisfy.
		sess.peer.SendErr(pkt.Seq, wire.CodeTooLarge,
			fmt.Sprintf("LSN %d record too large for one reply packet", req.LSN))
		return
	}
	s.m.readsServed.Add(uint64(len(recs)))
	respType := wire.TReadForwardResp
	if !forward {
		respType = wire.TReadBackwardResp
	}
	sess.peer.SendRecords(respType, pkt.Seq, 0, recs)
}

// Streaming read bounds.
const (
	// maxReadCredit caps the chunks a stream may run ahead of what its
	// client has consumed, whatever the client grants: the work (and the
	// burst) one datagram can demand of the server.
	maxReadCredit = 128
	// readAheadChunks sizes one store read of a stream: enough records
	// to fill this many chunks. Small enough that the first chunk leaves
	// long before the client's whole credit has been read, large enough
	// that the store sees a range, not a record, per call.
	readAheadChunks = 8
	// maxParkedReads bounds the streams one session may leave parked on
	// credit; opening another evicts the oldest. A client whose cursor
	// was closed mid-stream never says so — its stream ages out here.
	maxParkedReads = 8
)

// readStream is one streaming read between grants: where it stands in
// the range, how far the client's credit reaches, and the records read
// from the store but not yet sent.
type readStream struct {
	forward  bool
	next, to record.LSN // next LSN to read from the store; last LSN wanted
	drained  bool       // the store has nothing more in range
	pending  []record.Record
	index    uint32 // chunks sent so far
	limit    uint32 // chunks the client has granted
}

// handleReadStream opens a streaming read: consecutive stored records
// from From toward To, packed into TReadStreamData chunks, as many as
// the request's credit allows now and the rest as TReadCredit grants
// arrive. Between grants the stream is parked and the worker returns
// to its queue, so a long recovery scan interleaves with — never
// starves — the same client's writes and forces. The final chunk
// carries the done flag; it comes early when the server runs off the
// end of what it holds, a holder-set boundary the client resolves by
// asking another server.
func (s *Server) handleReadStream(sess *session, pkt *wire.Packet) {
	req, err := wire.DecodeReadStreamPayload(pkt.Payload)
	if err != nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, "bad read stream payload")
		return
	}
	forward := req.Dir == wire.StreamForward
	if req.Dir > wire.StreamBackward || req.From == 0 || req.To == 0 ||
		(forward && req.To < req.From) || (!forward && req.To > req.From) {
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, "bad read stream bounds")
		return
	}
	st := &readStream{forward: forward, next: req.From, to: req.To,
		limit: min(max(1, uint32(req.Credit)), maxReadCredit)}
	faultpoint.Hit(FPReadBeforeStore)
	s.fillStream(sess, st)
	if len(st.pending) == 0 {
		sess.peer.SendErr(pkt.Seq, wire.CodeNotStored, fmt.Sprintf("LSN %d not stored", req.From))
		return
	}
	if wire.FitStreamRecords(st.pending[:1]) == 0 {
		// Same rule as handleRead: the record exists, so CodeNotStored
		// would wrongly mark this server a non-holder.
		sess.peer.SendErr(pkt.Seq, wire.CodeTooLarge,
			fmt.Sprintf("LSN %d record too large for one reply packet", req.From))
		return
	}
	s.m.streamsServed.Add(1)
	if s.serveStream(sess, pkt.Seq, st) {
		return
	}
	if sess.reads == nil {
		sess.reads = make(map[uint64]*readStream)
	}
	if len(sess.reads) >= maxParkedReads {
		oldest := pkt.Seq
		for seq := range sess.reads {
			oldest = min(oldest, seq)
		}
		delete(sess.reads, oldest)
	}
	sess.reads[pkt.Seq] = st
}

// handleReadCredit applies a grant to a parked stream and resumes it.
// A grant for a stream that finished, aged out, or never arrived is
// ignored: the client's inter-chunk timeout covers every such case.
func (s *Server) handleReadCredit(sess *session, pkt *wire.Packet) {
	p, err := wire.DecodeReadCreditPayload(pkt.Payload)
	if err != nil {
		return
	}
	st := sess.reads[p.Stream]
	if st == nil || p.Limit <= st.limit {
		return
	}
	st.limit = min(p.Limit, st.index+maxReadCredit)
	if s.serveStream(sess, p.Stream, st) {
		delete(sess.reads, p.Stream)
	}
}

// fillStream tops up st.pending with one ReadRange call, or marks the
// stream drained when the store holds nothing (more) at st.next.
func (s *Server) fillStream(sess *session, st *readStream) {
	recs, err := s.cfg.Store.ReadRange(sess.clientID, st.next, st.to, readAheadChunks*wire.MaxPayload)
	if err != nil {
		st.drained = true
		return
	}
	st.pending = append(st.pending, recs...)
	last := recs[len(recs)-1].LSN
	switch {
	case last == st.to || (!st.forward && last == 1):
		st.drained = true
	case st.forward:
		st.next = last + 1
	default:
		st.next = last - 1
	}
}

// serveStream sends chunks while the stream's credit lasts and reports
// whether it sent the final one.
func (s *Server) serveStream(sess *session, respTo uint64, st *readStream) (finished bool) {
	for st.index < st.limit {
		n := wire.FitStreamRecords(st.pending)
		if n == len(st.pending) && !st.drained {
			// Everything on hand fits one chunk and the range goes on:
			// read ahead before cutting the chunk, so chunks leave full.
			s.fillStream(sess, st)
			n = wire.FitStreamRecords(st.pending)
		}
		// n == 0 with records pending is an oversized mid-stream record:
		// end the stream short of it, and let the request that resumes
		// there draw CodeTooLarge.
		done := n == 0 || (n == len(st.pending) && st.drained)
		faultpoint.Hit(FPStreamBetweenPackets)
		if _, err := sess.peer.SendStreamChunk(respTo, st.index, done, 0, st.pending[:n]); err != nil {
			return true
		}
		s.m.streamPackets.Add(1)
		s.m.readsServed.Add(uint64(n))
		st.index++
		st.pending = st.pending[n:]
		if done {
			return true
		}
	}
	return false
}

func (s *Server) handleCopyLog(sess *session, pkt *wire.Packet) {
	p, err := wire.DecodeRecordsPayload(pkt.Payload)
	if err != nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, "bad CopyLog payload")
		return
	}
	for _, rec := range p.Records {
		if err := s.cfg.Store.StageCopy(sess.clientID, rec); err != nil {
			sess.peer.SendErr(pkt.Seq, wire.CodeSequencing, err.Error())
			return
		}
	}
	sess.peer.Send(wire.TCopyLogResp, pkt.Seq, nil)
}

func (s *Server) handleInstallCopies(sess *session, pkt *wire.Packet) {
	p, err := wire.DecodeInstallPayload(pkt.Payload)
	if err != nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, "bad InstallCopies payload")
		return
	}
	faultpoint.Hit(FPInstallBeforeCommit)
	// The range check tells an install that overtook its copies (refused,
	// retryable) from a retransmission of one already applied (answered
	// idempotently by the store).
	switch err := s.cfg.Store.InstallCopies(sess.clientID, p.Epoch, storage.Span{Low: p.Low, High: p.High}); {
	case errors.Is(err, storage.ErrNotStaged):
		sess.peer.SendErr(pkt.Seq, wire.CodeNotStaged, err.Error())
		return
	case err != nil:
		sess.peer.SendErr(pkt.Seq, wire.CodeSequencing, err.Error())
		return
	}
	// Installed records may rewind the client's stream position; the
	// next write stream will re-anchor.
	sess.expectedNext = 0
	sess.peer.Send(wire.TInstallCopiesResp, pkt.Seq, nil)
}

// handleTruncatePoint applies the asynchronous truncation report: the
// checkpointing client's fire-and-forget version of TTruncateReq. No
// reply and no error surface — a lost or failed report only delays
// reclamation until the next checkpoint's report.
func (s *Server) handleTruncatePoint(sess *session, pkt *wire.Packet) {
	p, err := wire.DecodeLSNPayload(pkt.Payload)
	if err != nil {
		return
	}
	if err := s.cfg.Store.Truncate(sess.clientID, p.LSN); err == nil {
		s.m.truncatePoints.Add(1)
	}
}

// handleTruncate serves the Section 5.3 space-management call: the
// client declares records below an LSN unnecessary for its recovery
// (it has checkpointed or dumped) and the server discards them.
func (s *Server) handleTruncate(sess *session, pkt *wire.Packet) {
	p, err := wire.DecodeLSNPayload(pkt.Payload)
	if err != nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, "bad truncate payload")
		return
	}
	err = s.cfg.Store.Truncate(sess.clientID, p.LSN)
	if err != nil && !errors.Is(err, storage.ErrNotStored) {
		sess.peer.SendErr(pkt.Seq, wire.CodeUnknown, err.Error())
		return
	}
	// Truncating a client with no records is an idempotent no-op.
	sess.peer.Send(wire.TTruncateResp, pkt.Seq, nil)
}

func (s *Server) handleEpochRead(sess *session, pkt *wire.Packet) {
	if s.cfg.Epochs == nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, wire.NoEpochHostMessage)
		return
	}
	v, err := s.cfg.Epochs.Rep(sess.clientID).ReadState()
	if err != nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeUnknown, err.Error())
		return
	}
	resp := wire.EpochValuePayload{Value: v}
	sess.peer.Send(wire.TEpochReadResp, pkt.Seq, resp.Encode())
}

func (s *Server) handleEpochWrite(sess *session, pkt *wire.Packet) {
	if s.cfg.Epochs == nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, wire.NoEpochHostMessage)
		return
	}
	p, err := wire.DecodeEpochValuePayload(pkt.Payload)
	if err != nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeBadRequest, "bad epoch value")
		return
	}
	if err := s.cfg.Epochs.Rep(sess.clientID).WriteState(p.Value); err != nil {
		sess.peer.SendErr(pkt.Seq, wire.CodeUnknown, err.Error())
		return
	}
	sess.peer.Send(wire.TEpochWriteResp, pkt.Seq, nil)
}
