package core

import (
	"fmt"
	"sync"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
)

// Parallel multi-stream logging (Taurus-style). A log opened with
// Config.Streams = K > 1 is K independent replicated logs — each with
// its own LSN sequence, epoch, send window, outstanding buffer, and
// per-server sessions — multiplexed over the one transport endpoint.
// Stream i writes under the derived identity ClientID | i<<56, so the
// servers keep per-stream session state (acker marks, interval lists,
// epoch representatives) with no new protocol: to a server a stream is
// just another client.
//
// Ordering across streams is recovered from dependency vectors, not a
// total order: a commit-class record appended with Stream.WriteCommit
// is stamped with each sibling stream's highest assigned LSN at append
// time. Recovery replays the K streams in parallel and merges by those
// vectors (OpenMergedCursor): a commit is applied only after every
// sibling prefix it observed. Records written with plain WriteLog carry
// no vector and impose no cross-stream order — the transaction layer
// orders them through the commit records that cover them.
//
// The dependency-vector invariant: a vector entry (j, h) is read from
// stream j's published high-LSN *before* the commit record is appended,
// so the dependency graph over commit records is acyclic and dependency
// order extends every per-stream LSN order.

// maxStreams bounds Config.Streams. The derived-identity scheme spends
// the ClientID's top byte on the stream index.
const maxStreams = 255

// StreamClientID returns the derived identity stream i of a K-stream
// log writes under. Stream 0 is the base ClientID itself, so a
// single-stream log is bit-for-bit the classic one.
func StreamClientID(base record.ClientID, i int) record.ClientID {
	if i == 0 {
		return base
	}
	return base | record.ClientID(uint64(i)<<56)
}

// registerStreams creates and registers the K-1 child per-stream logs
// of a multi-stream parent. Called from Open once the parent's receive
// pump is running — children are registered for packet routing before
// they dial, so their handshakes ride that pump — and before any
// initialization, the parent's included, so child recovery can overlap
// it.
func (l *ReplicatedLog) registerStreams() {
	k := l.cfg.Streams
	l.mu.Lock()
	l.childByID = make(map[record.ClientID]*ReplicatedLog)
	l.streams = make([]*ReplicatedLog, k)
	l.streams[0] = l
	l.mu.Unlock()
	l.m.enableStreamCounters(l.cfg.Telemetry, 0)
	for i := 1; i < k; i++ {
		ccfg := l.cfg
		ccfg.ClientID = StreamClientID(l.cfg.ClientID, i)
		ccfg.Streams = 1
		c := newLog(ccfg, fmt.Sprintf("#s%d", i))
		c.parent = l
		c.streamIdx = i
		c.shared = true
		c.m.enableStreamCounters(ccfg.Telemetry, i)
		l.mu.Lock()
		l.childByID[ccfg.ClientID] = c
		l.streams[i] = c
		l.mu.Unlock()
		c.pumpWG.Add(1)
		go c.streamer()
	}
}

// initializeStreams runs the K-1 children's Section 3.1.2
// initializations concurrently: each costs several round trips against
// the servers, and the children share nothing but the transport, so
// restart latency stays flat in K instead of growing linearly. The
// streams are independent replicated logs — each recovers its own tail
// under its own epoch — which is what makes the concurrency sound.
func (l *ReplicatedLog) initializeStreams() error {
	children := l.streamLogs()[1:]
	errs := make([]error, len(children))
	var wg sync.WaitGroup
	for idx := range children {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			if err := children[idx].initialize(); err != nil {
				errs[idx] = fmt.Errorf("core: opening stream %d: %w", idx+1, err)
			}
		}(idx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Streams returns K, the number of parallel streams this log writes.
func (l *ReplicatedLog) Streams() int {
	if l.parent != nil {
		return l.parent.Streams()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.streams) == 0 {
		return 1
	}
	return len(l.streams)
}

// Stream returns the handle for stream i. Stream 0 is the log itself —
// every single-stream Log method is an exact alias for it — so
// Stream(0) is valid on any log, including one opened without the
// Streams option.
func (l *ReplicatedLog) Stream(i int) *Stream {
	root := l
	if l.parent != nil {
		root = l.parent
	}
	root.mu.Lock()
	streams := root.streams
	root.mu.Unlock()
	if len(streams) == 0 {
		if i != 0 {
			panic(fmt.Sprintf("core: Stream(%d) on a single-stream log", i))
		}
		return &Stream{log: root, idx: 0}
	}
	if i < 0 || i >= len(streams) {
		panic(fmt.Sprintf("core: Stream(%d) out of range [0,%d)", i, len(streams)))
	}
	return &Stream{log: streams[i], idx: i}
}

// streamLogs returns the per-stream logs in index order (just the log
// itself for a single-stream log).
func (l *ReplicatedLog) streamLogs() []*ReplicatedLog {
	root := l
	if l.parent != nil {
		root = l.parent
	}
	root.mu.Lock()
	defer root.mu.Unlock()
	if len(root.streams) == 0 {
		return []*ReplicatedLog{root}
	}
	return root.streams
}

// depVector reads the dependency vector for a commit on stream self:
// every sibling stream's highest assigned LSN, skipping streams that
// have written nothing. The reads are lock-free snapshots of published
// highs; each is necessarily ≤ the sibling's high at any later moment,
// which is the direction the invariant needs.
func (l *ReplicatedLog) depVector(self int) []record.StreamDep {
	logs := l.streamLogs()
	if len(logs) <= 1 {
		return nil
	}
	deps := make([]record.StreamDep, 0, len(logs)-1)
	for i, s := range logs {
		if i == self || s == nil {
			continue
		}
		if h := s.lastLSN.Load(); h > 0 {
			deps = append(deps, record.StreamDep{Stream: uint32(i), High: record.LSN(h)})
		}
	}
	return deps
}

// Stream is the handle for one stream of a (possibly multi-stream)
// replicated log. Every method maps onto the stream's own replicated
// log, so per-stream operations never contend on another stream's
// locks; WriteCommit is the one cross-stream operation, and it reads
// only lock-free published LSN highs from the siblings.
type Stream struct {
	log *ReplicatedLog
	idx int
}

// Index returns the stream's index within its log (0..K-1).
func (s *Stream) Index() int { return s.idx }

// Log exposes the stream's underlying replicated log. The returned log
// is a full single-stream client (cursors, checkpoints, stats); callers
// must not Close it — the parent log owns its lifecycle.
func (s *Stream) Log() *ReplicatedLog { return s.log }

// WriteLog appends a record to this stream and returns its LSN in the
// stream's own LSN sequence.
func (s *Stream) WriteLog(data []byte) (record.LSN, error) {
	return s.log.WriteLog(data)
}

// ForceLog appends a record to this stream and forces the stream
// through it.
func (s *Stream) ForceLog(data []byte) (record.LSN, error) {
	return s.log.ForceLog(data)
}

// Force makes every record written to this stream stable on its N
// servers. Other streams are unaffected: a transaction that must be
// durable forces only the streams it wrote.
func (s *Stream) Force() error { return s.log.Force() }

// WriteCommit appends a commit-class record: one stamped with the
// dependency vector of every sibling stream's current high LSN, so
// dependency-ordered recovery replays it after the sibling prefixes it
// could have observed. On a single-stream log it degenerates to
// WriteLog. The record is buffered like any write; pair it with Force
// (or use ForceCommit) for the durable commit point.
func (s *Stream) WriteCommit(data []byte) (record.LSN, error) {
	deps := s.log.depVector(s.idx)
	// A crash here holds a vector naming records that may never become
	// stable; the commit record itself is not yet written, so recovery
	// must see a log without it.
	faultpoint.Hit(FPCommitVector)
	lsn, err := s.log.writeLog(data, deps, true)
	if err == nil && s.log.m.sCommits != nil {
		s.log.m.sCommits.Add(1)
	}
	return lsn, err
}

// ForceCommit appends a commit-class record and forces the stream
// through it: the multi-stream forced commit point.
func (s *Stream) ForceCommit(data []byte) (record.LSN, error) {
	lsn, err := s.WriteCommit(data)
	if err != nil {
		return 0, err
	}
	return lsn, s.log.Force()
}

// Checkpoint writes a checkpoint record to this stream and advances the
// stream's truncation point (Section 5.3), exactly as Log.Checkpoint
// does for a single-stream log.
func (s *Stream) Checkpoint(data []byte) (record.LSN, error) {
	return s.log.Checkpoint(data)
}

// TruncatePrefix advances the stream's truncation point.
func (s *Stream) TruncatePrefix(before record.LSN) error {
	return s.log.TruncatePrefix(before)
}

// EndOfLog returns the stream's most recently written LSN.
func (s *Stream) EndOfLog() record.LSN { return s.log.EndOfLog() }

// Epoch returns the stream's current epoch.
func (s *Stream) Epoch() record.Epoch { return s.log.Epoch() }

// ClientID returns the derived identity the stream writes under.
func (s *Stream) ClientID() record.ClientID { return s.log.ClientID() }

// ReadRecord reads one record from the stream.
func (s *Stream) ReadRecord(lsn record.LSN) (record.Record, error) {
	return s.log.ReadRecord(lsn)
}

// OpenCursor opens a prefetching cursor over the stream's own records.
func (s *Stream) OpenCursor(from record.LSN, dir Direction) (Cursor, error) {
	return s.log.OpenCursor(from, dir)
}

// Err reports the stream's asynchronous write-pipeline health.
func (s *Stream) Err() error { return s.log.Err() }

// Stats returns the stream's counter snapshot.
func (s *Stream) Stats() Stats { return s.log.Stats() }
