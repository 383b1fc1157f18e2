// Package core implements the paper's primary contribution: the
// replicated log of Section 3 — an append-only sequence of records
// identified by increasing LSNs, replicated on N of M log server
// nodes by a specialized single-client quorum consensus algorithm.
//
// WriteLog operations buffer and group records (Section 4.1's seven-
// fold RPC reduction), stream them asynchronously, and complete on
// Force when N servers have acknowledged. ReadLog operations use the
// interval lists merged at initialization — the one-time vote — to
// read from a single server. Client initialization implements the
// crash-recovery procedure of Section 3.1.2: merge interval lists from
// at least M-N+1 servers, obtain a fresh epoch from the replicated
// identifier generator, re-copy the doubtful tail of δ records under
// the new epoch, write δ not-present records after it, and atomically
// install the copies.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distlog/internal/faultpoint"
	"distlog/internal/idgen"
	"distlog/internal/loadassign"
	"distlog/internal/record"
	"distlog/internal/telemetry"
	"distlog/internal/transport"
	"distlog/internal/wire"
)

// Public errors.
var (
	// ErrNotPresent is signaled when the requested record is marked not
	// present (it was superseded by crash recovery).
	ErrNotPresent = errors.New("core: log record not present")
	// ErrBeyondEnd is signaled when the requested LSN is beyond the end
	// of the log.
	ErrBeyondEnd = errors.New("core: LSN beyond end of log")
	// ErrUnavailable is returned when no server holding the record (or
	// accepting writes) can be reached.
	ErrUnavailable = errors.New("core: no log server available")
	// ErrInitQuorum is returned when fewer than M-N+1 servers answered
	// IntervalList during initialization.
	ErrInitQuorum = errors.New("core: cannot gather M-N+1 interval lists")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("core: replicated log closed")
)

// Config configures a ReplicatedLog.
type Config struct {
	// ClientID identifies this transaction-processing node. A
	// replicated log has exactly one client.
	ClientID record.ClientID
	// Servers are the M log server addresses.
	Servers []string
	// N is the number of servers each record is written to (2 or 3 in
	// practice, per Section 3.2).
	N int
	// Delta (δ) bounds the number of records that may be partially
	// written when the client crashes: the client never has more than
	// Delta unacknowledged records outstanding. Default 16.
	Delta int
	// Endpoint is the client's network attachment.
	Endpoint transport.Endpoint
	// CallTimeout bounds each synchronous call attempt and each force
	// acknowledgment wait. Default 250ms.
	CallTimeout time.Duration
	// Retries is how many times lost calls and forces are retried
	// before the server is presumed failed. Default 3.
	Retries int
	// FlushBatch is the number of buffered records that triggers an
	// asynchronous WriteLog message before any force. Zero disables the
	// opportunistic flush (records stream on Force; a packet-sized batch
	// is still computed per message).
	FlushBatch int
	// WriteWindow is the sliding send window of the streaming write
	// protocol (Section 4.2, Figure 4.1): how many record frames may be
	// in flight — sent but not yet covered by the server's cumulative
	// appended acknowledgment — per write-set server. The effective
	// window is halved on congestion signals (TBusy NACKs, timeouts)
	// and ramps back additively. Default 32.
	WriteWindow int
	// FlushInterval is the streamer's adaptive-packing deadline: a
	// buffered record is transmitted no later than this after it was
	// written, even if its frame is not yet full. It delays only
	// records nobody waits on: a pending force point, a Force waiting
	// on a round in flight (for the records up to its own last one),
	// and a writer waiting on the δ bound while none of the buffer is
	// on its way to a server each send the partial frame at once.
	// Default 200µs.
	FlushInterval time.Duration
	// OnError, when set, is invoked (once per error episode, on its own
	// goroutine) when the asynchronous write pipeline records a failure
	// — the health callback counterpart of Err. A subsequent successful
	// Force clears the episode.
	OnError func(error)
	// Window is the moving-window flow-control allocation granted to
	// each server. Zero means wire.DefaultWindow (512 packets).
	Window uint64
	// OverAllocPause is how long a sender pauses before exceeding its
	// allocation. Zero means wire.DefaultOverAllocPause (2s).
	OverAllocPause time.Duration
	// Streams is K, the number of independent log streams this client
	// writes (parallel multi-stream logging). Each stream owns its own
	// LSN sequence, send window, and per-server sessions, all sharing
	// the one Endpoint; commit-class records written through
	// Stream.WriteCommit carry a dependency vector over the other
	// streams so recovery can replay the streams in parallel and merge
	// by dependency. Zero means 1 (the classic single-stream log);
	// every Log method then behaves exactly as before. Values above 1
	// require ClientID < 2^56 (the top byte derives per-stream
	// identities).
	Streams int
	// ConnID overrides the connection incarnation identifier (tests);
	// 0 derives one from the clock and a process-wide counter.
	ConnID uint64
	// EpochReps overrides where epoch numbers come from. Nil uses the
	// representatives hosted on the log servers themselves.
	EpochReps []idgen.Representative
	// Telemetry receives the client's metrics (and, if the registry has
	// tracing enabled, its LSN-lifecycle events). Nil directs metrics to
	// a private registry so Stats() keeps working; per-operation cost is
	// identical either way.
	Telemetry *telemetry.Registry
}

// Validate checks the configuration and fills in the documented
// defaults for zero-valued fields. Open calls it; callers building
// configurations programmatically may call it early to surface errors
// before dialing anything. Nonsensical values — negative depths,
// timeouts, or windows — are rejected rather than silently defaulted.
func (c *Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("core: N = %d", c.N)
	}
	if len(c.Servers) < c.N {
		return fmt.Errorf("core: %d servers < N = %d", len(c.Servers), c.N)
	}
	if c.Endpoint == nil {
		return fmt.Errorf("core: no endpoint")
	}
	switch {
	case c.Delta < 0:
		return fmt.Errorf("core: negative Delta %d", c.Delta)
	case c.CallTimeout < 0:
		return fmt.Errorf("core: negative CallTimeout %v", c.CallTimeout)
	case c.Retries < 0:
		return fmt.Errorf("core: negative Retries %d", c.Retries)
	case c.FlushBatch < 0:
		return fmt.Errorf("core: negative FlushBatch %d", c.FlushBatch)
	case c.WriteWindow < 0:
		return fmt.Errorf("core: negative WriteWindow %d", c.WriteWindow)
	case c.FlushInterval < 0:
		return fmt.Errorf("core: negative FlushInterval %v", c.FlushInterval)
	case c.OverAllocPause < 0:
		return fmt.Errorf("core: negative OverAllocPause %v", c.OverAllocPause)
	case c.Streams < 0:
		return fmt.Errorf("core: negative Streams %d", c.Streams)
	}
	if c.Streams == 0 {
		c.Streams = 1
	}
	if c.Streams > maxStreams {
		return fmt.Errorf("core: Streams %d exceeds maximum %d", c.Streams, maxStreams)
	}
	if c.Streams > 1 && uint64(c.ClientID) >= 1<<56 {
		return fmt.Errorf("core: ClientID %d too large for multi-stream derivation (needs the top byte)", c.ClientID)
	}
	if c.Delta == 0 {
		c.Delta = 16
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 250 * time.Millisecond
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	if c.WriteWindow == 0 {
		c.WriteWindow = 32
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 200 * time.Microsecond
	}
	return nil
}

var connIDCounter atomic.Uint64

// Stats is a snapshot of client-side protocol activity. It is a view
// over the telemetry counters (see metrics.go); the counters are
// incremented under the log's mutex, so a Stats snapshot is exact and
// internally consistent.
type Stats struct {
	Writes          uint64
	Forces          uint64 // Force calls (including δ-triggered implicit forces)
	ForceRounds     uint64 // protocol rounds actually executed (≤ Forces)
	GroupCommits    uint64 // Force calls satisfied by riding another caller's round
	Reads           uint64
	ReadCacheHits   uint64
	ReadCacheMisses uint64 // reads that went to a server (or synthesized a marker)
	Failovers       uint64
	Migrations      uint64 // completed write-set migrations (see Migrate)
	Resends         uint64
	// Cursor activity. These are incremented by scans running off the
	// client mutex, so they are monotone but not transactionally
	// consistent with the write-path counters above.
	CursorStreams  uint64 // ReadStream requests issued
	StreamRestarts uint64 // holder switches after a stream ended short of its stretch
	PrefetchHits   uint64 // cursor advanced onto a batch that had already arrived
	PrefetchWaits  uint64 // cursor had to block for the next batch
	// Streaming-write activity (see sendwindow.go). Incremented off the
	// client mutex like the cursor family: monotone, not transactionally
	// consistent with the write-path counters.
	StreamFrames   uint64 // record frames sent by the streamer goroutine
	StreamBusy     uint64 // TBusy congestion NACKs received
	StreamBackoffs uint64 // multiplicative window decreases (Busy or timeout)
	StreamTimeouts uint64 // retransmission timeouts detected by the streamer
}

// ReplicatedLog is a replicated log handle. It is safe for concurrent
// use by the goroutines of its single owning client node.
type ReplicatedLog struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*session
	writeSet []string
	epoch    record.Epoch
	nextLSN  record.LSN
	// outstanding holds every record not yet acknowledged by all
	// write-set servers, in LSN order. Its length never exceeds Delta.
	outstanding []record.Record
	holders     *holders
	readCache   *readCache
	truncated   record.LSN // records below were discarded via TruncatePrefix
	m           *clientMetrics
	closed      bool
	// writeCond wakes δ-bounded writers when background release (or a
	// force round) shrinks the outstanding buffer.
	writeCond *sync.Cond
	// asyncErr is the sticky first error of the asynchronous write
	// pipeline (streamer sends, opportunistic flushes); see Err. A
	// successful Force clears it.
	asyncErr error
	// Group-commit state (see forceround.go): whether a round is in
	// flight and the latest failed one. Rounds run one at a time, so one
	// scratch waiter set and wait group are reused across every round
	// instead of being allocated per force.
	round        forceRound
	roundWaiters []roundWaiter
	roundWG      sync.WaitGroup

	// Write-set migration state (see migrate.go). migrateMu serializes
	// Migrate calls against each other; migrating — set under l.mu —
	// holds new force rounds while the in-flight one drains and the set
	// is swapped.
	migrateMu sync.Mutex
	migrating bool

	// Streamer wakeup and shutdown (see sendwindow.go). streamKick is
	// 1-buffered: a pending kick covers any number of new ones.
	// quietAcks lets acknowledgments skip waking the streamer. The
	// streamer sets it only while a force round is in flight, nobody
	// waits on release, and every force point has gone out; planting a
	// force point, a caller starting to wait, and the round's end clear
	// it (see streamAckEvent). releaseWaiters counts the Force callers
	// and δ-bounded writers blocked on release, deltaWaiters the latter
	// alone. joinHigh is the highest LSN a Force that joined a round in
	// flight has waited for. The last two say which held records a
	// waiter needs, which the streamer then sends without waiting for
	// the flush deadline (see streamFramesLocked). Guarded by l.mu.
	streamKick     chan struct{}
	streamQuit     chan struct{}
	quietAcks      atomic.Bool
	releaseWaiters int
	deltaWaiters   int
	joinHigh       record.LSN

	pumpWG sync.WaitGroup

	// Multi-stream state (see streams.go). On a parent (stream 0) of a
	// K-stream log, streams[0] == l and streams[1..K-1] are the child
	// per-stream logs, and childByID routes received packets to them by
	// their derived ClientIDs; on a child, parent points back and shared
	// marks that the endpoint and pump belong to the parent. lastLSN
	// publishes the stream's highest assigned LSN for dependency-vector
	// stamping (read lock-free by the other streams' WriteCommit).
	streams   []*ReplicatedLog
	childByID map[record.ClientID]*ReplicatedLog
	parent    *ReplicatedLog
	streamIdx int
	shared    bool
	lastLSN   atomic.Uint64
}

// Open dials the log servers, runs the client initialization and
// crash-recovery procedure of Section 3.1.2, and returns a usable log.
// With cfg.Streams = K > 1 it additionally opens K-1 child per-stream
// logs (each running its own Section 3.1.2 recovery under a derived
// ClientID) sharing the one endpoint; see streams.go.
func Open(cfg Config) (*ReplicatedLog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ConnID == 0 {
		cfg.ConnID = uint64(time.Now().UnixNano())<<8 | (connIDCounter.Add(1) & 0xFF)
	}
	l := newLog(cfg, "")
	l.pumpWG.Add(2)
	go l.pump()
	go l.streamer()

	// Stream 0 (the parent) and the K-1 children recover concurrently:
	// the children are registered for packet routing first, then all K
	// initializations proceed at once, so a K-stream open costs one
	// stream's round trips, not K of them.
	childDone := make(chan error, 1)
	if cfg.Streams > 1 {
		l.registerStreams()
		go func() { childDone <- l.initializeStreams() }()
	} else {
		childDone <- nil
	}
	err := l.initialize()
	childErr := <-childDone
	if err == nil {
		err = childErr
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// newLog constructs a ReplicatedLog without starting its goroutines or
// running recovery. nodeSuffix distinguishes per-stream metrics nodes.
func newLog(cfg Config, nodeSuffix string) *ReplicatedLog {
	l := &ReplicatedLog{
		cfg:        cfg,
		sessions:   make(map[string]*session),
		readCache:  newReadCache(readCacheCap),
		m:          newClientMetrics(cfg.Telemetry, cfg.Endpoint.Addr()+nodeSuffix),
		streamKick: make(chan struct{}, 1),
		streamQuit: make(chan struct{}),
	}
	l.writeCond = sync.NewCond(&l.mu)
	return l
}

// pump is the receive loop: it demultiplexes packets to sessions. On a
// multi-stream parent it first routes by the packet's ClientID — server
// replies echo the client identity of the session they answer, so a
// packet for a child stream's derived identity is handed to that child
// log's session table.
func (l *ReplicatedLog) pump() {
	defer l.pumpWG.Done()
	for {
		raw, err := l.cfg.Endpoint.Recv(0)
		if err != nil {
			return
		}
		pkt, err := wire.Decode(raw.Data)
		if err != nil {
			continue // corrupt: end-to-end check drops it
		}
		target := l
		if pkt.ClientID != l.cfg.ClientID {
			l.mu.Lock()
			target = l.childByID[pkt.ClientID]
			l.mu.Unlock()
			if target == nil {
				continue
			}
		}
		target.mu.Lock()
		sess := target.sessions[raw.From]
		target.mu.Unlock()
		if sess != nil {
			sess.deliver(&pkt)
		}
	}
}

// dial returns the session for addr, creating and handshaking it if
// needed. A session that was reset is re-dialed with a fresh
// incarnation. Concurrent dialers of one address share a single
// handshake: the goroutine that created the session runs it, everyone
// else blocks on the session's ready gate — a caller is never handed a
// session whose handshake is still in flight (it would stream records
// on an unestablished peer) or about to fail and be deleted.
func (l *ReplicatedLog) dial(addr string) (*session, error) {
	return l.dialFor(addr, 0)
}

// onLiveSession runs f on the session to addr, re-dialing once if the
// server reset it. A cached session can outlive its server's
// incarnation (the server rebooted while the session sat idle), and a
// request the server reset was never processed, so repeating it on a
// fresh session is safe. op is the initialization the dial serves (see
// dialFor).
func (l *ReplicatedLog) onLiveSession(addr string, op uint64, f func(*session) error) (*session, error) {
	for attempt := 0; ; attempt++ {
		sess, err := l.dialFor(addr, op)
		if err != nil {
			return nil, err
		}
		err = f(sess)
		if attempt > 0 || !errors.Is(err, ErrServerReset) {
			return sess, err
		}
	}
}

// initOps numbers initializations, so a session knows which one dialed
// it (see session.initOp); zero is no initialization.
var initOps atomic.Uint64

// dialFor is dial on behalf of initialization op: a session it creates
// hands op the first reads its SynAck carried.
func (l *ReplicatedLog) dialFor(addr string, op uint64) (*session, error) {
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return nil, ErrClosed
		}
		if sess := l.sessions[addr]; sess != nil {
			l.mu.Unlock()
			<-sess.ready // handshake settled, one way or the other
			sess.mu.Lock()
			usable := sess.hsErr == nil && !sess.reset && !sess.closed
			sess.mu.Unlock()
			if usable {
				return sess, nil
			}
			// Dead (reset, closed, or failed handshake): retire it and
			// retry with a fresh incarnation. Remove only the session we
			// inspected — a concurrent dialer may have replaced it
			// already.
			l.mu.Lock()
			if l.sessions[addr] == sess {
				delete(l.sessions, addr)
			}
			l.mu.Unlock()
			continue
		}
		connID := l.cfg.ConnID + connIDCounter.Add(1)
		sess := newSession(l.cfg.Endpoint, addr, l.cfg.ClientID, connID,
			l.cfg.Window, l.cfg.OverAllocPause, l.cfg.CallTimeout, l.cfg.Retries)
		if dual, ok := l.cfg.Endpoint.(interface{ Unanswered(peer string) }); ok {
			sess.onRetry = func() { dual.Unanswered(addr) }
		}
		// Window and wakeups are wired before the session is published:
		// deliver reads the callbacks without sess.mu.
		sess.win = sendWindow{cwnd: l.cfg.WriteWindow, max: l.cfg.WriteWindow}
		sess.onAck = l.streamAckEvent
		sess.onBusy = l.streamBusyEvent
		sess.initOp = op
		l.sessions[addr] = sess
		l.mu.Unlock()

		err := sess.handshake()
		sess.mu.Lock()
		sess.hsErr = err
		sess.mu.Unlock()
		close(sess.ready)
		if err != nil {
			l.mu.Lock()
			if l.sessions[addr] == sess {
				delete(l.sessions, addr)
			}
			l.mu.Unlock()
			sess.close()
			return nil, err
		}
		l.reportFloor(sess)
		return sess, nil
	}
}

// reportFloor re-asserts the client's truncation point on a freshly
// established session. TTruncatePoint is fire-and-forget: a server
// that was down (or rebooting) when Checkpoint reported the point
// missed it, and without this it would hold — and archive — dead
// records until the next checkpoint happens to run. Sent on every
// (re)handshake, the floor survives any pattern of server reboots.
func (l *ReplicatedLog) reportFloor(sess *session) {
	l.mu.Lock()
	floor := l.truncated
	l.mu.Unlock()
	if floor <= 1 {
		return
	}
	sess.peer.Send(wire.TTruncatePoint, 0, (&wire.LSNPayload{LSN: floor}).Encode())
}

// initialize runs the Section 3.1.2 client initialization: gather
// interval lists, obtain a new epoch, re-copy the doubtful tail under
// it and install the copies. Every step fans out to the servers it
// involves at once, and a restart costs three round trips whatever M, N
// and δ are: the handshake, whose SynAck carries each server's
// interval list and epoch-representative value; the tail read beside
// the epoch write; and CopyLog with InstallCopies right behind it.
func (l *ReplicatedLog) initialize() error {
	op := initOps.Add(1)
	// Obtain a new epoch number, higher than any used before. The
	// generator depends on nothing the servers hold, so it runs beside
	// the gather and the tail read; its write must finish before any
	// install, because a half-written epoch could be drawn again.
	type epochResult struct {
		epoch uint64
		err   error
	}
	epochCh := make(chan epochResult, 1)
	go func() {
		epoch, err := l.newEpoch(op)
		epochCh <- epochResult{epoch, err}
	}()

	// Gather interval lists from at least M-N+1 servers.
	lists := l.gatherIntervalLists(op)
	if need := len(l.cfg.Servers) - l.cfg.N + 1; len(lists) < need {
		<-epochCh
		return fmt.Errorf("%w: have %d, need %d", ErrInitQuorum, len(lists), need)
	}
	merged := record.Merge(lists)
	high := merged.High()
	l.mu.Lock()
	l.holders = newHolders(merged)
	l.nextLSN = high + 1 // until recovery completes, the log ends where the servers say
	l.mu.Unlock()

	// Crash recovery: the most recent δ records are doubtful (the
	// previous incarnation may have partially written any of them).
	// Read them — positions never completed come back as not-present
	// markers — with the scan every other read uses.
	delta := record.LSN(l.cfg.Delta)
	copyLow := record.LSN(1)
	if high > delta {
		copyLow = high - delta + 1
	}
	var staged []record.Record
	var err error
	if high > 0 {
		if staged, err = l.readRange(copyLow, high, Forward, streamWindow); err != nil {
			err = fmt.Errorf("core: recovery read of LSNs %d..%d: %w", copyLow, high, err)
		}
	}
	er := <-epochCh
	if err != nil {
		return err
	}
	if er.err != nil {
		return fmt.Errorf("core: obtaining new epoch: %w", er.err)
	}
	l.mu.Lock()
	l.epoch = record.Epoch(er.epoch)
	l.mu.Unlock()

	// Choose the write set: N live servers ranked by rendezvous
	// hashing over the (client, server) pair, so a population of
	// clients spreads its load across the M servers (the simple
	// decentralized assignment Section 5.4 anticipates) and a
	// membership change re-maps only the clients of the changed server.
	// The ranking is shared with the loadassign simulation and the live
	// rebalancer, so all three agree on where a client belongs.
	if len(lists) < l.cfg.N {
		return fmt.Errorf("%w: only %d servers reachable, need N=%d", ErrUnavailable, len(lists), l.cfg.N)
	}
	var liveAddrs []string
	for _, addr := range l.cfg.Servers {
		if _, ok := lists[addr]; ok {
			liveAddrs = append(liveAddrs, addr)
		}
	}
	writeSet := loadassign.Pick(uint64(l.cfg.ClientID), l.cfg.N, liveAddrs)

	// Copy each doubtful record under the new epoch, write δ
	// not-present records above the old end of log, and install
	// everything atomically — on all N servers at once.
	for i := range staged {
		staged[i].Epoch = l.epoch
	}
	for lsn := high + 1; lsn <= high+delta; lsn++ {
		staged = append(staged, record.Record{LSN: lsn, Epoch: l.epoch, Present: false})
	}
	errs := make([]error, len(writeSet))
	var wg sync.WaitGroup
	for i, addr := range writeSet {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			errs[i] = l.installCopies(addr, staged)
		}(i, addr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	l.mu.Lock()
	l.writeSet = writeSet
	l.holders.add(l.epoch, staged[0].LSN, staged[len(staged)-1].LSN, writeSet)
	l.nextLSN = high + delta + 1
	l.lastLSN.Store(uint64(high + delta))
	l.mu.Unlock()
	return nil
}

// gatherIntervalLists dials every server and asks for its interval
// list, all at once, and returns the lists that arrived by the time
// enough had: the M-N+1 the merge needs, with every server the write
// set would be placed on if all M were up among them — or, failing
// that, everything the servers that can be reached had to say. A dead
// server outside the preferred write set therefore costs a restart
// nothing; its dial finishes, unheard, in the background (Close waits
// for it).
func (l *ReplicatedLog) gatherIntervalLists(op uint64) map[string][]record.Interval {
	type answer struct {
		addr string
		ivs  []record.Interval
		err  error
	}
	answers := make(chan answer, len(l.cfg.Servers)) // one slot per server: a late answer never blocks
	for _, addr := range l.cfg.Servers {
		l.pumpWG.Add(1)
		go func(addr string) {
			defer l.pumpWG.Done()
			a := answer{addr: addr}
			defer func() { answers <- a }()
			var sess *session
			if sess, a.err = l.dialFor(addr, op); a.err != nil {
				return
			}
			a.ivs, a.err = intervalList(sess, op)
		}(addr)
	}
	need := len(l.cfg.Servers) - l.cfg.N + 1
	preferred := loadassign.Pick(uint64(l.cfg.ClientID), l.cfg.N, l.cfg.Servers)
	lists := make(map[string][]record.Interval)
	enough := func() bool {
		if len(lists) < need {
			return false
		}
		for _, addr := range preferred {
			if _, ok := lists[addr]; !ok {
				return false
			}
		}
		return true
	}
	for answered := 0; answered < len(l.cfg.Servers) && !enough(); answered++ {
		if a := <-answers; a.err == nil {
			lists[a.addr] = a.ivs
		}
	}
	return lists
}

// intervalList fetches the client's whole interval list from one
// server. For initialization op on a session it dialed, the newest page
// came with the handshake; otherwise it takes one call. Either way, a
// full page may have older ones behind it, fetched until one comes back
// short.
func intervalList(sess *session, op uint64) ([]record.Interval, error) {
	ivs, ok := sess.helloIntervals(op)
	if ok && len(ivs) < wire.MaxHelloIntervals {
		return ivs, nil
	}
	for {
		req := wire.IntervalListReqPayload{Skip: uint32(len(ivs))}
		resp, err := sess.call(wire.TIntervalListReq, req.Encode())
		if err != nil {
			return nil, err
		}
		page, err := wire.DecodeIntervalListPayload(resp.Payload)
		if err != nil {
			return nil, err
		}
		ivs = append(page.Intervals, ivs...)
		if len(page.Intervals) < wire.MaxIntervalsPerPacket {
			return ivs, nil
		}
	}
}

// newEpoch draws the next epoch from the replicated generator, on
// behalf of initialization op (zero for none).
func (l *ReplicatedLog) newEpoch(op uint64) (uint64, error) {
	reps := l.cfg.EpochReps
	if reps == nil {
		for _, addr := range l.cfg.Servers {
			reps = append(reps, &remoteRep{log: l, addr: addr, op: op})
		}
	}
	gen, err := idgen.New(reps...)
	if err != nil {
		return 0, err
	}
	return gen.NewID()
}

// installCopies stages the recovery records on one write-set server and
// installs them in one round trip: the InstallCopies request leaves
// right behind its CopyLog frames. The install names the LSN range it
// must cover, so a server that has not (yet) staged all of it refuses
// it and writes nothing; the client then awaits every CopyLog
// acknowledgment — retrying lost frames — and installs again.
func (l *ReplicatedLog) installCopies(addr string, staged []record.Record) error {
	sess, err := l.dial(addr)
	if err != nil {
		return fmt.Errorf("core: recovery dial %s: %w", addr, err)
	}
	copies, err := l.startCopies(sess, staged)
	if err != nil {
		return fmt.Errorf("core: CopyLog to %s: %w", addr, err)
	}
	faultpoint.Hit(FPInitCopied)
	install := rpc{t: wire.TInstallCopiesReq, payload: (&wire.InstallPayload{
		Epoch: l.epoch, Low: staged[0].LSN, High: staged[len(staged)-1].LSN,
	}).Encode()}
	if err = sess.start(&install); err == nil {
		_, err = sess.finish(&install)
	}
	if isNotStaged(err) {
		// The install overtook one of its copies, or a copy was lost.
		for i := range copies {
			if _, err := sess.finish(&copies[i]); err != nil {
				return fmt.Errorf("core: CopyLog to %s: %w", addr, err)
			}
		}
		_, err = sess.call(wire.TInstallCopiesReq, install.payload)
	} else {
		for i := range copies {
			sess.forget(copies[i].seq)
		}
	}
	if err != nil {
		return fmt.Errorf("core: InstallCopies on %s: %w", addr, err)
	}
	faultpoint.Hit(FPInitInstalled)
	return nil
}

// isNotStaged reports whether err is the server's refusal of an
// install whose range is not wholly staged.
func isNotStaged(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == wire.CodeNotStaged
}

// startCopies sends the recovery records to one server in packet-sized
// CopyLog calls, back to back, and returns the calls for finish —
// staging is idempotent and order-free. The record-aware call path
// keeps the frame version honest when re-copied records carry
// dependency vectors.
func (l *ReplicatedLog) startCopies(sess *session, staged []record.Record) ([]rpc, error) {
	var calls []rpc
	for len(staged) > 0 {
		n := wire.FitRecords(staged)
		if n == 0 {
			return nil, fmt.Errorf("core: recovery record too large for a packet")
		}
		calls = append(calls, rpc{t: wire.TCopyLogReq, epoch: l.epoch, recs: staged[:n]})
		staged = staged[n:]
	}
	for i := range calls {
		if err := sess.start(&calls[i]); err != nil {
			for _, c := range calls[:i] {
				sess.forget(c.seq)
			}
			return nil, err
		}
	}
	return calls, nil
}

// Epoch returns the epoch number of this client incarnation.
func (l *ReplicatedLog) Epoch() record.Epoch {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// EndOfLog returns the LSN of the most recently written log record
// (Section 3.1). Not-present markers written by recovery count as
// records; readers skip them via ErrNotPresent.
func (l *ReplicatedLog) EndOfLog() record.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// ClientID returns the identity this log writes under.
func (l *ReplicatedLog) ClientID() record.ClientID { return l.cfg.ClientID }

// WriteSet returns the addresses currently receiving this log's
// records.
func (l *ReplicatedLog) WriteSet() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.writeSet))
	copy(out, l.writeSet)
	return out
}

// Stats returns a snapshot of client counters.
func (l *ReplicatedLog) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.statsLocked()
}

// Err reports the health of the asynchronous write pipeline: the first
// error recorded by a background send (streamer frame, opportunistic
// flush) since the last successful Force, or nil. The pipeline keeps
// retrying after an error — a non-nil Err means durability progress is
// in doubt, not that the log is dead — and a Force that completes
// clears the episode, because its acknowledgments subsume everything
// the background path was trying to do.
func (l *ReplicatedLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.asyncErr
}

// noteAsyncErrLocked records a background write failure: the first
// error of an episode sticks for Err and fires the OnError health
// callback on its own goroutine (never under l.mu). Caller holds l.mu.
func (l *ReplicatedLog) noteAsyncErrLocked(err error) {
	if err == nil || l.asyncErr != nil {
		return
	}
	l.asyncErr = err
	if cb := l.cfg.OnError; cb != nil {
		go cb(err)
	}
}

// WriteLog appends a record to the replicated log and returns its LSN.
// The record is buffered — grouped with its neighbours into a single
// network message — and becomes stable on the next Force (or when the
// group is implicitly forced because δ records are outstanding).
//
// The log retains data (without copying) until the record has been
// acknowledged by all N servers; the caller must not modify the slice
// after the call.
func (l *ReplicatedLog) WriteLog(data []byte) (record.LSN, error) {
	return l.writeLog(data, nil, true)
}

// writeLog appends one record. kick wakes the streaming pipeline for
// the new record; ForceLog passes false — its own Force either leads a
// round, which flushes the buffer immediately, or waits behind one and
// then kicks the streamer itself. Waking the streamer to hold a partial
// frame that the force will have transmitted by the time the flush
// deadline fires is pure overhead on the forced-write path.
// deps, when non-nil, is the dependency vector stamped on the record
// (Stream.WriteCommit); ordinary writes pass nil.
func (l *ReplicatedLog) writeLog(data []byte, deps []record.StreamDep, kick bool) (record.LSN, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	// δ-bound: never let more than Delta records be outstanding. The
	// check must be a loop — Force releases l.mu, and by the time it is
	// re-acquired other writers may have refilled the buffer to Delta
	// again; appending after a plain `if` would let concurrent writers
	// push past δ and void the recovery guarantee (recovery re-copies
	// only the last δ records).
	var stallStart time.Time
	for len(l.outstanding) >= l.cfg.Delta {
		if stallStart.IsZero() {
			stallStart = time.Now()
		}
		// The pipeline is already pushing the buffer toward stability,
		// so wait for background release to bring it under δ. Fall back
		// to a force round — whose waiters own retry, NACK service, and
		// failover — if release stalls for a full call timeout (e.g. a
		// write-set server went quiet).
		l.kickStream()
		if l.waitReleaseLocked(time.Now().Add(l.cfg.CallTimeout)) {
			if l.closed {
				l.mu.Unlock()
				return 0, ErrClosed
			}
			continue
		}
		l.mu.Unlock()
		if err := l.Force(); err != nil {
			return 0, err
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return 0, ErrClosed
		}
	}
	if !stallStart.IsZero() {
		l.m.deltaStall.Observe(uint64(time.Since(stallStart)))
	}
	lsn := l.nextLSN
	l.nextLSN++
	rec := record.Record{LSN: lsn, Epoch: l.epoch, Present: true, Data: data, Deps: deps}
	l.outstanding = append(l.outstanding, rec)
	l.lastLSN.Store(uint64(lsn))
	l.m.writes.Add(1)
	if l.m.sWrites != nil {
		l.m.sWrites.Add(1)
	}
	l.m.trace.Emit(telemetry.EvWrite, l.m.node, uint64(lsn), uint64(l.epoch), 0)
	if l.cfg.FlushBatch > 0 && len(l.outstanding) >= l.cfg.FlushBatch {
		// Opportunistic batch flush. The append itself has succeeded —
		// the LSN is assigned and the record buffered — so a transport
		// hiccup here is not the caller's failure: the next Force
		// retransmits the stream, and the error is surfaced through the
		// asynchronous channel (Err / OnError) meanwhile.
		if err := l.flushLocked(false); err != nil {
			l.noteAsyncErrLocked(err)
		}
	}
	l.mu.Unlock()
	if kick {
		l.kickStream()
	}
	return lsn, nil
}

// ForceLog appends a record and forces the log through it, returning
// when the record is stable on N servers (the paper's forced write).
func (l *ReplicatedLog) ForceLog(data []byte) (record.LSN, error) {
	lsn, err := l.writeLog(data, nil, false)
	if err != nil {
		return 0, err
	}
	return lsn, l.Force()
}

// flushLocked streams outstanding records not yet sent to each write-
// set server as asynchronous WriteLog messages. Caller holds l.mu.
func (l *ReplicatedLog) flushLocked(force bool) error {
	for _, addr := range l.writeSet {
		sess := l.sessions[addr]
		if sess == nil {
			continue
		}
		if err := l.sendStreamLocked(sess, force); err != nil {
			return err
		}
	}
	return nil
}

// sendStreamLocked flushes the records beyond sess.sentHigh toward one
// server. A force does not burst the buffer past the send window —
// that is how a large force used to shed its own frames off the
// server's queue and collapse the AIMD window. Instead it plants the
// session's force point (the tail LSN the force must cover) and runs
// one windowed pass: the streamer transmits the remainder as
// acknowledgments open the window, stamping the frame that covers the
// point as a ForceLog — or a bare ForcePoint when the tail is already
// streamed (Section 4.2: forcing an already-streamed log is a mark,
// not a data transfer). Caller holds l.mu.
func (l *ReplicatedLog) sendStreamLocked(sess *session, force bool) error {
	if force && len(l.outstanding) > 0 {
		target := l.outstanding[len(l.outstanding)-1].LSN
		sess.mu.Lock()
		if target > sess.forcePoint {
			sess.forcePoint = target
		}
		sess.mu.Unlock()
	}
	if force {
		// Acks wake the streamer again until its next pass has seen the
		// force point out: a window-capped force depends on them.
		l.quietAcks.Store(false)
	}
	_, err := l.streamFramesLocked(sess, true)
	return err
}

// Force is implemented in forceround.go: concurrent callers coalesce
// onto shared force rounds (group commit) and each round waits for its
// N server acknowledgments in parallel.

// awaitServer waits until the given server acknowledges target,
// retransmitting on NACK or timeout, and ultimately failing over.
func (l *ReplicatedLog) awaitServer(addr string, target record.LSN) error {
	if l.awaitAck(addr, target) {
		l.m.waiterAcks.Add(1)
		return nil
	}
	return l.failover(addr, target)
}

// awaitAck waits until the server at addr acknowledges target: it
// services the server's NACKs, re-dials it when it resets the session,
// and on each of up to Retries timeouts retransmits the stream. False
// means the server is given up on.
func (l *ReplicatedLog) awaitAck(addr string, target record.LSN) bool {
	for attempt := 0; attempt <= l.cfg.Retries; attempt++ {
		l.mu.Lock()
		sess := l.sessions[addr]
		l.mu.Unlock()
		if sess == nil {
			break
		}
		acked, nacked, err := sess.waitAck(target, time.Now().Add(l.cfg.CallTimeout))
		if acked {
			return true
		}
		if err != nil {
			if errors.Is(err, ErrServerReset) {
				// The server is alive — it answered with a reset — but
				// dropped our session (restart, or idle-janitor eviction
				// raced a reconnect). Re-dial it and replay before
				// abandoning it to failover: a freshly migrated-to server
				// must not be deserted over one evicted session.
				if fresh, derr := l.dial(addr); derr == nil {
					l.mu.Lock()
					l.m.resends.Add(1)
					fresh.mu.Lock()
					fresh.win.clear()
					fresh.sentHigh = 0 // resend everything outstanding
					fresh.mu.Unlock()
					sendErr := l.sendStreamLocked(fresh, true)
					l.mu.Unlock()
					if sendErr == nil {
						continue
					}
				}
			}
			break // closed, or the re-dial failed: fail over
		}
		if nacked {
			l.m.waiterNacks.Add(1)
			if err := l.serviceMissing(sess); err != nil {
				break
			}
			attempt-- // a NACK is progress, not a timeout
			continue
		}
		// Timeout: retransmit the stream with a trailing ForceLog; a
		// dual-network endpoint fails over to its second network first.
		l.m.waiterTimeouts.Add(1)
		l.m.trace.Emit(telemetry.EvRetry, addr, uint64(target), 0, uint64(attempt+1))
		if sess.onRetry != nil {
			sess.onRetry()
		}
		l.mu.Lock()
		l.m.resends.Add(1)
		sess.mu.Lock()
		sess.win.backoff() // a lost frame is a congestion signal too
		sess.win.clear()
		sess.sentHigh = 0 // resend everything outstanding
		sess.mu.Unlock()
		l.m.streamBackoffs.Add(1)
		err = l.sendStreamLocked(sess, true)
		l.mu.Unlock()
		if err != nil {
			break
		}
	}
	return false
}

// serviceMissing answers a server's MissingInterval NACKs by resending
// from the lowest missing LSN (the records are still in the
// outstanding buffer — that is what δ guarantees) or, if the missing
// records were already released, starting a new interval.
func (l *ReplicatedLog) serviceMissing(sess *session) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.serviceMissingLocked(sess)
}

// serviceMissingLocked is serviceMissing under l.mu; the streamer
// calls it directly from its pipeline pass.
func (l *ReplicatedLog) serviceMissingLocked(sess *session) error {
	nacks := sess.takeMissing()
	if len(nacks) == 0 {
		return nil
	}
	low := nacks[0].Low
	for _, n := range nacks[1:] {
		if n.Low < low {
			low = n.Low
		}
	}
	l.m.resends.Add(1)
	l.m.trace.Emit(telemetry.EvNack, sess.addr, uint64(low), uint64(l.epoch), uint64(len(nacks)))
	if len(l.outstanding) == 0 || low < l.outstanding[0].LSN {
		// The missing records were acknowledged by the full write set
		// and released (this server wasn't in it, or lost state): tell
		// it to start a new interval at our next record.
		start := l.nextLSN
		if len(l.outstanding) > 0 {
			start = l.outstanding[0].LSN
		}
		ni := wire.NewIntervalPayload{Epoch: l.epoch, StartingLSN: start}
		if _, err := sess.peer.Send(wire.TNewInterval, 0, ni.Encode()); err != nil {
			return err
		}
		sess.mu.Lock()
		sess.win.clear() // the rewound frames will be re-registered
		sess.sentHigh = start - 1
		sess.mu.Unlock()
	} else {
		sess.mu.Lock()
		sess.win.clear()
		sess.sentHigh = low - 1
		sess.mu.Unlock()
	}
	return l.sendStreamLocked(sess, true)
}

// failover replaces a failed write-set server with a spare, replaying
// the outstanding records to it ("a client can switch servers when
// necessary").
func (l *ReplicatedLog) failover(failed string, target record.LSN) error {
	l.mu.Lock()
	inSet := false
	for _, a := range l.writeSet {
		if a == failed {
			inSet = true
		}
	}
	if !inSet {
		l.mu.Unlock()
		return nil // already replaced by a concurrent force
	}
	var candidates []string
	for _, addr := range l.cfg.Servers {
		used := false
		for _, w := range l.writeSet {
			if w == addr {
				used = true
			}
		}
		if !used {
			candidates = append(candidates, addr)
		}
	}
	// The failed server itself is the last resort: it may simply have
	// restarted (its store is intact) and a fresh handshake revives it.
	candidates = append(candidates, failed)
	l.mu.Unlock()

	for _, addr := range candidates {
		sess, err := l.dial(addr)
		if err != nil {
			continue
		}
		l.mu.Lock()
		// Tell the replacement where the stream resumes, then replay
		// every outstanding record.
		start := l.nextLSN
		if len(l.outstanding) > 0 {
			start = l.outstanding[0].LSN
		}
		ni := wire.NewIntervalPayload{Epoch: l.epoch, StartingLSN: start}
		if _, err := sess.peer.Send(wire.TNewInterval, 0, ni.Encode()); err != nil {
			l.mu.Unlock()
			continue
		}
		sess.mu.Lock()
		sess.sentHigh = start - 1
		sess.mu.Unlock()
		if err := l.sendStreamLocked(sess, true); err != nil {
			l.mu.Unlock()
			continue
		}
		l.mu.Unlock()

		// The spare gets the patience a write-set server gets: a lost
		// frame draws a NACK to service, a lost ack a retransmission.
		if !l.awaitAck(addr, target) && len(l.outstandingSnapshot()) > 0 {
			continue
		}

		l.mu.Lock()
		// Parallel waiters can fail over concurrently: by now another
		// waiter may have replaced failed already, or claimed this very
		// spare for a different failed server. Re-check before install.
		stillFailed, taken := false, false
		for _, a := range l.writeSet {
			if a == failed {
				stillFailed = true
			}
			if a == addr && addr != failed {
				taken = true
			}
		}
		if !stillFailed {
			l.mu.Unlock()
			return nil
		}
		if taken {
			l.mu.Unlock()
			continue
		}
		faultpoint.Hit(FPFailoverBeforeSwap)
		for i, a := range l.writeSet {
			if a == failed {
				l.writeSet[i] = addr
			}
		}
		l.m.failovers.Add(1)
		l.m.trace.Emit(telemetry.EvFailover, failed, uint64(target), uint64(l.epoch), 0)
		l.mu.Unlock()
		return nil
	}
	return fmt.Errorf("%w: no spare server could take over from %s", ErrUnavailable, failed)
}

func (l *ReplicatedLog) outstandingSnapshot() []record.Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]record.Record(nil), l.outstanding...)
}

// TruncatePrefix implements the Section 5.3 space-management function:
// after the client's recovery manager has checkpointed (or dumped), it
// declares records below before unnecessary and the log servers
// discard them. The point is clamped so the δ-record crash-recovery
// tail and all outstanding records are always retained. Truncation is
// best-effort per server; a server that misses it merely keeps extra
// data.
func (l *ReplicatedLog) TruncatePrefix(before record.LSN) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	limit := l.nextLSN - record.LSN(l.cfg.Delta)
	if len(l.outstanding) > 0 && l.outstanding[0].LSN < limit {
		limit = l.outstanding[0].LSN
	}
	if before > limit {
		before = limit
	}
	if before <= l.truncated || before <= 1 {
		l.mu.Unlock()
		return nil
	}
	l.truncated = before
	l.readCache.removeBelow(before)
	servers := append([]string(nil), l.cfg.Servers...)
	l.mu.Unlock()

	payload := (&wire.LSNPayload{LSN: before}).Encode()
	ok := 0
	var firstErr error
	for _, addr := range servers {
		sess, err := l.dial(addr)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if _, err := sess.call(wire.TTruncateReq, payload); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok++
	}
	if ok == 0 {
		return fmt.Errorf("%w: truncate reached no server: %v", ErrUnavailable, firstErr)
	}
	return nil
}

// Truncated returns the lowest LSN still readable (0 when nothing was
// truncated).
func (l *ReplicatedLog) Truncated() record.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// ReadRecord returns the full record (including the present flag) for
// lsn. Most callers want ReadLog; the recovery manager uses ReadRecord
// to skip not-present markers during scans.
func (l *ReplicatedLog) ReadRecord(lsn record.LSN) (record.Record, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return record.Record{}, ErrClosed
	}
	if lsn == 0 || lsn >= l.nextLSN {
		l.mu.Unlock()
		return record.Record{}, fmt.Errorf("%w: %d (end of log %d)", ErrBeyondEnd, lsn, l.nextLSN-1)
	}
	if lsn < l.truncated {
		// Discarded by space management: report not-present, the same
		// answer any future incarnation will compute from the clipped
		// interval lists.
		l.mu.Unlock()
		return record.Record{LSN: lsn, Present: false}, nil
	}
	// Unacknowledged records are served locally.
	for _, rec := range l.outstanding {
		if rec.LSN == lsn {
			l.mu.Unlock()
			return rec.Clone(), nil
		}
	}
	if rec, ok := l.readCache.get(lsn); ok {
		l.m.readCacheHits.Add(1)
		l.m.reads.Add(1)
		l.mu.Unlock()
		return rec.Clone(), nil
	}
	l.m.readCacheMisses.Add(1)
	l.m.reads.Add(1)
	covered := l.holders.covered(lsn)
	l.mu.Unlock()

	if !covered {
		// Within the log's range but on no server: a position that was
		// never completed and not re-written by recovery (cannot happen
		// below the δ window); report it as a not-present record so
		// scans can skip it uniformly.
		return record.Record{LSN: lsn, Present: false}, nil
	}
	// One-record scan: the same path (and the same holder failover) a
	// cursor uses, so a single ReadRecord costs exactly one request and
	// one reply chunk.
	recs, err := l.readRange(lsn, lsn, Forward, 1)
	if err != nil {
		return record.Record{}, err
	}
	rec := recs[0]
	l.mu.Lock()
	l.cacheRecord(rec)
	l.mu.Unlock()
	return rec, nil
}

func (l *ReplicatedLog) cacheRecord(rec record.Record) {
	l.readCache.put(rec)
}

// ReadRecordsBackward returns a batch of records with descending LSNs
// starting at from, fetched with a single ReadLogBackward call to one
// holder (Section 4.2: read replies pack as many consecutive records
// as fit one packet). The batch ends where the serving holder's
// records end or where a stale copy would have been returned; callers
// scanning further continue from the last LSN minus one. The batch
// always contains the record at from on success.
func (l *ReplicatedLog) ReadRecordsBackward(from record.LSN) ([]record.Record, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	if from == 0 || from >= l.nextLSN {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: %d (end of log %d)", ErrBeyondEnd, from, l.nextLSN-1)
	}
	if from < l.truncated {
		l.mu.Unlock()
		return []record.Record{{LSN: from, Present: false}}, nil
	}
	// Outstanding (unacknowledged) records are local; serve the head
	// record directly rather than mixing buffered and remote batches.
	for _, rec := range l.outstanding {
		if rec.LSN == from {
			l.mu.Unlock()
			return []record.Record{rec.Clone()}, nil
		}
	}
	servers := l.holders.serversFor(from)
	covered := l.holders.covered(from)
	l.mu.Unlock()

	if !covered {
		return []record.Record{{LSN: from, Present: false}}, nil
	}
	req := (&wire.LSNPayload{LSN: from}).Encode()
	var firstErr error
	for _, addr := range servers {
		sess, err := l.dial(addr)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		resp, err := sess.call(wire.TReadBackwardReq, req)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		p, err := wire.DecodeRecordsPayload(resp.Payload)
		if err != nil || len(p.Records) == 0 || p.Records[0].LSN != from {
			continue
		}
		// Keep the descending prefix whose epochs match the client's
		// view; a stale lower-epoch copy ends the batch.
		l.mu.Lock()
		var out []record.Record
		next := from
		for _, rec := range p.Records {
			if rec.LSN != next || rec.LSN < l.truncated || rec.Epoch < l.holders.epochFor(rec.LSN) {
				break
			}
			out = append(out, rec)
			l.cacheRecord(rec)
			next = rec.LSN - 1
		}
		l.m.reads.Add(uint64(len(out)))
		l.mu.Unlock()
		if len(out) > 0 {
			return out, nil
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("%w: LSN %d on %v", ErrUnavailable, from, servers)
	}
	return nil, firstErr
}

// ReadLog returns the data of the record with the given LSN (Section
// 3.1). It signals ErrBeyondEnd past the end of the log and
// ErrNotPresent for records superseded by recovery.
func (l *ReplicatedLog) ReadLog(lsn record.LSN) ([]byte, error) {
	rec, err := l.ReadRecord(lsn)
	if err != nil {
		return nil, err
	}
	if !rec.Present {
		return nil, fmt.Errorf("%w: LSN %d", ErrNotPresent, lsn)
	}
	return rec.Data, nil
}

// Close releases the client's network resources. Buffered records that
// were never forced are not stable and are discarded — exactly the
// contract a crash would impose.
func (l *ReplicatedLog) Close() error {
	// Child per-stream logs go first: they share this log's endpoint and
	// pump, so they must be quiesced while routing still works.
	l.mu.Lock()
	children := l.streams
	l.mu.Unlock()
	for _, c := range children {
		if c != nil && c != l {
			c.Close()
		}
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.writeCond.Broadcast()
	close(l.streamQuit)
	sessions := make([]*session, 0, len(l.sessions))
	for _, s := range l.sessions {
		sessions = append(sessions, s)
	}
	l.mu.Unlock()
	for _, s := range sessions {
		s.close()
	}
	if !l.shared {
		l.cfg.Endpoint.Close()
	}
	l.pumpWG.Wait()
	return nil
}

// remoteRep adapts a log server's hosted epoch representative to the
// idgen.Representative interface.
type remoteRep struct {
	log  *ReplicatedLog
	addr string
	op   uint64 // the initialization drawing the epoch, zero for none
}

// ReadState implements idgen.Representative. During initialization
// the read usually came with the handshake.
func (r *remoteRep) ReadState() (uint64, error) {
	var v uint64
	_, err := r.log.onLiveSession(r.addr, r.op, func(sess *session) error {
		if hv, ok, err := sess.helloEpoch(r.op); ok {
			v = hv
			return err
		}
		resp, err := sess.call(wire.TEpochReadReq, (&wire.EpochValuePayload{}).Encode())
		if err != nil {
			return err
		}
		p, err := wire.DecodeEpochValuePayload(resp.Payload)
		if err != nil {
			return err
		}
		v = p.Value
		return nil
	})
	return v, err
}

// WriteState implements idgen.Representative.
func (r *remoteRep) WriteState(v uint64) error {
	_, err := r.log.onLiveSession(r.addr, 0, func(sess *session) error {
		_, err := sess.call(wire.TEpochWriteReq, (&wire.EpochValuePayload{Value: v}).Encode())
		return err
	})
	return err
}
