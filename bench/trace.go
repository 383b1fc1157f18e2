package main

import (
	"sync"
	"sync/atomic"
	"time"

	"distlog"
	"distlog/internal/wire"
)

// spanKind names a span. Each kind belongs to one layer and has one
// kind of span that causes it; spans of one transaction share the id
// (client, lsn).
type spanKind uint8

const (
	spanTxn        spanKind = iota // recman: Begin → Commit return
	spanUpdate                     // recman: one Txn.AddNote/Add/SetNote
	spanCommit                     // recman: Txn.Commit
	spanRecover                    // recman: OpenEngine at restart
	spanWriteLog                   // core: Log.WriteLog at the recman.Log seam
	spanForce                      // core: Log.Force at the recman.Log seam
	spanOpen                       // core: distlog.Open at restart
	spanSend                       // transport: one Endpoint.Send call
	spanOneWay                     // transport: Send start → Recv return on the peer
	spanForceDwell                 // server: force-carrying frame received → covering ack sent
	spanReadDwell                  // server: read request received → last reply packet sent
	spanAppend                     // storage: Store.Append
	spanStoreForce                 // storage: Store.Force
	spanStoreRead                  // storage: Store.Read
	numSpanKinds
)

var spanNames = [numSpanKinds]struct{ layer, name, parent string }{
	spanTxn:        {"recman", "txn", ""},
	spanUpdate:     {"recman", "update", "txn"},
	spanCommit:     {"recman", "commit", "txn"},
	spanRecover:    {"recman", "recover", ""},
	spanWriteLog:   {"core", "writelog", "update|commit"},
	spanForce:      {"core", "force", "commit"},
	spanOpen:       {"core", "open", ""},
	spanSend:       {"transport", "send", "force|force_dwell"},
	spanOneWay:     {"transport", "oneway", "force|force_dwell"},
	spanForceDwell: {"server", "force_dwell", "oneway"},
	spanReadDwell:  {"server", "read_dwell", "oneway"},
	spanAppend:     {"storage", "append", "force_dwell"},
	spanStoreForce: {"storage", "store_force", "force_dwell"},
	spanStoreRead:  {"storage", "store_read", "read_dwell"},
}

// span is one timed call or wait. It holds no pointers, so a run's
// worth of them costs the collector nothing to scan.
type span struct {
	kind   spanKind
	server int8   // server index, or -1 when the span is on a client node
	node   uint32 // client node (its base ClientID) the span is for; 0 when shared
	start  int64  // ns since the trace began
	dur    int64
	client uint64 // wire ClientID (a stream-derived id on K > 1)
	lsn    uint64 // highest LSN the span covers; 0 when it covers none
}

func (s span) iv() iv { return iv{s.start, s.start + s.dur} }

// Phases a traced run counts under.
const (
	phaseOff = iota
	phaseCommit
	phaseRestart
	numPhases
)

// Node roles of a wrapped endpoint.
const (
	nodeClient = iota
	nodeServer
)

const (
	dirSend = iota
	dirRecv
)

// numTypes bounds the wire packet types counted; wire has fewer.
const numTypes = 48

// phaseCounts is what the wrappers count during one phase.
type phaseCounts struct {
	packets      [2][2][numTypes]atomic.Uint64 // [role][dir][wire type]
	bytes        [2][2]atomic.Uint64
	frames       atomic.Uint64 // record-carrying write frames seen by servers
	frameRecords atomic.Uint64
	appends      atomic.Uint64
	appendBytes  atomic.Uint64 // encoded record bytes handed to Store.Append
	storeForces  atomic.Uint64
	storeReads   atomic.Uint64
	unmatched    atomic.Uint64 // sends overwritten before their receive was seen
}

// packetsAt is how many packets crossed the endpoints of one role, in
// either direction.
func (c *phaseCounts) packetsAt(role int) float64 {
	n := uint64(0)
	for dir := range c.packets[role] {
		for t := range c.packets[role][dir] {
			n += c.packets[role][dir][t].Load()
		}
	}
	return float64(n)
}

type flightKey struct {
	from string
	conn uint64
	seq  uint64
}

type flight struct {
	start int64
	lsn   uint64
}

type sessKey struct {
	server int
	addr   string
	client uint64
}

type pendingForce struct {
	lsn  uint64
	recv int64
}

type pendingRead struct {
	server int
	node   uint32
	client uint64
	recv   int64
	last   int64
}

const spanShards = 16

// tracer collects what the three wrappers see. It records only while a
// phase is set, so one rig serves both the untraced reference slice of
// a traced run and the traced slice.
type tracer struct {
	epoch time.Time
	phase atomic.Int32
	count [numPhases]phaseCounts

	shards [spanShards]struct {
		mu    sync.Mutex
		spans []span
		_     [40]byte // keep neighbouring shard locks off one cache line
	}

	mu        sync.Mutex
	clients   map[string]uint32 // client endpoint address → client node
	flights   map[flightKey]flight
	forces    map[sessKey][]pendingForce
	reads     map[flightKey]*pendingRead
	commitLSN map[uint64]uint64 // node<<40 | txn id → commit LSN
	timers    []*committerTimer
}

func newTracer() *tracer {
	return &tracer{
		epoch:     time.Now(),
		clients:   make(map[string]uint32),
		flights:   make(map[flightKey]flight),
		forces:    make(map[sessKey][]pendingForce),
		reads:     make(map[flightKey]*pendingRead),
		commitLSN: make(map[uint64]uint64),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// counts returns the counters of the current phase, or nil while
// recording is off.
func (t *tracer) counts() *phaseCounts {
	if p := t.phase.Load(); p != phaseOff {
		return &t.count[p]
	}
	return nil
}

// setPhase switches what the wrappers record under and returns the
// trace time of the switch. A nil tracer (an untraced run) ignores it.
func (t *tracer) setPhase(p int32) int64 {
	if t == nil {
		return 0
	}
	t.phase.Store(p)
	return t.now()
}

func (t *tracer) add(s span) {
	sh := &t.shards[int(s.kind)%spanShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// allSpans returns every recorded span, grouped by kind.
func (t *tracer) allSpans() [numSpanKinds][]span {
	var out [numSpanKinds][]span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for _, s := range sh.spans {
			out[s.kind] = append(out[s.kind], s)
		}
		sh.mu.Unlock()
	}
	return out
}

// baseClient strips the stream index a K > 1 log packs into the top
// byte of its per-stream ClientIDs.
func baseClient(id uint64) uint32 { return uint32(id & (1<<56 - 1)) }

// committerTimer receives one committer's engine-call timings.
type committerTimer struct {
	t       *tracer
	node    uint32
	updates []time.Duration
	commits []time.Duration
}

// committerTimer returns the timer for one committer goroutine, or nil
// on an untraced run.
func (t *tracer) committerTimer(id distlog.ClientID) *committerTimer {
	if t == nil {
		return nil
	}
	ct := &committerTimer{t: t, node: uint32(id)}
	t.mu.Lock()
	t.timers = append(t.timers, ct)
	t.mu.Unlock()
	return ct
}

func (ct *committerTimer) update(d time.Duration) {
	if ct.t.counts() == nil {
		return
	}
	ct.updates = append(ct.updates, d)
	ct.t.add(span{kind: spanUpdate, server: -1, node: ct.node, start: ct.t.now() - int64(d), dur: int64(d), client: uint64(ct.node)})
}

func (ct *committerTimer) commit(txnID uint64, start time.Time, d time.Duration) {
	lsn := ct.t.takeCommitLSN(ct.node, txnID)
	if ct.t.counts() == nil {
		return
	}
	ct.commits = append(ct.commits, d)
	ct.t.add(span{kind: spanCommit, server: -1, node: ct.node, start: int64(start.Sub(ct.t.epoch)), dur: int64(d), client: uint64(ct.node), lsn: lsn})
}

// txnDone records the whole-transaction span.
func (t *tracer) txnDone(id distlog.ClientID, start time.Time, d time.Duration) {
	if t == nil || t.counts() == nil {
		return
	}
	t.add(span{kind: spanTxn, server: -1, node: uint32(id), start: int64(start.Sub(t.epoch)), dur: int64(d), client: uint64(id)})
}

func commitKey(node uint32, txnID uint64) uint64 { return uint64(node)<<40 | txnID&(1<<40-1) }

// noteCommitLSN remembers the LSN WriteLog gave a transaction's commit
// record, so the committer can stamp its spans with (client, LSN).
func (t *tracer) noteCommitLSN(node uint32, txnID, lsn uint64) {
	t.mu.Lock()
	t.commitLSN[commitKey(node, txnID)] = lsn
	t.mu.Unlock()
}

func (t *tracer) takeCommitLSN(node uint32, txnID uint64) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	k := commitKey(node, txnID)
	lsn := t.commitLSN[k]
	delete(t.commitLSN, k)
	return lsn
}

// packetLSN is the highest LSN a packet covers: the last record of a
// write frame, the LSN of a force point, the stable mark of an ack.
func packetLSN(pkt *wire.Packet) (lsn uint64, records int) {
	switch pkt.Type {
	case wire.TWriteLog, wire.TForceLog:
		if p, err := wire.DecodeRecordsPayload(pkt.Payload); err == nil && len(p.Records) > 0 {
			return uint64(p.Records[len(p.Records)-1].LSN), len(p.Records)
		}
	case wire.TForcePoint:
		if p, err := wire.DecodeLSNPayload(pkt.Payload); err == nil {
			return uint64(p.LSN), 0
		}
	case wire.TNewHighLSN:
		if p, err := wire.DecodeWriteAckPayload(pkt.Payload); err == nil {
			return uint64(p.Stable), 0
		}
	}
	return 0, 0
}
