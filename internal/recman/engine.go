package recman

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"distlog/internal/core"
	"distlog/internal/record"
	"distlog/internal/splitlog"
)

// ErrTxnDone is returned when a finished transaction is used again.
var ErrTxnDone = errors.New("recman: transaction already committed or aborted")

// Options configures an Engine.
type Options struct {
	// Split enables the Section 5.2 log record splitting/caching
	// optimization: redo components streamed, undo components cached.
	Split bool
	// LockTimeout bounds lock waits (crude deadlock resolution).
	// Default 2s.
	LockTimeout time.Duration
	// CheckpointEvery takes a sharp checkpoint after that many commits
	// (0 = only on demand).
	CheckpointEvery int
	// TruncateOnCheckpoint additionally discards the log prefix made
	// unnecessary by each checkpoint, when the log supports truncation
	// (Section 5.3: "client recovery managers can use checkpoints ...
	// to limit the online log storage required for node recovery").
	TruncateOnCheckpoint bool
	// FullReplay makes recovery ignore checkpoint records and replay
	// the whole surviving log. It is the media-recovery mode of Section
	// 5.3: after restoring the stable store from a periodic dump, the
	// entire online log is replayed over it (redo records carry
	// absolute values, so replaying history already reflected in the
	// dump is harmless).
	FullReplay bool
}

// prefixTruncator is the optional log capability TruncateOnCheckpoint
// uses; *core.ReplicatedLog implements it.
type prefixTruncator interface {
	TruncatePrefix(before record.LSN) error
}

// checkpointWriter is the richer checkpoint capability the engine
// prefers over prefixTruncator; *core.ReplicatedLog implements it. One
// call writes and forces the checkpoint record and advances the
// truncation point, reporting it to the log servers with asynchronous
// truncation-report messages instead of a synchronous truncate RPC per
// server — a checkpoint never stalls on an unreachable server.
type checkpointWriter interface {
	Checkpoint(data []byte) (record.LSN, error)
}

// forceCoalescer is the optional log capability behind
// ForceRoundStats; *core.ReplicatedLog implements it. Concurrent
// committers share force rounds (group commit), so rounds < forces
// when commits overlap.
type forceCoalescer interface {
	ForceRoundStats() (forces, rounds, groupCommits uint64)
}

// Stats counts engine activity.
type Stats struct {
	Begins           uint64
	Commits          uint64
	Aborts           uint64
	Updates          uint64
	LogRecords       uint64
	LogBytes         uint64
	AbortLogReads    uint64 // undo values fetched from the log (combined mode)
	AbortsFromCache  uint64 // aborts served by the split cache
	Flushes          uint64
	Checkpoints      uint64
	RecoveredWinners int
	RecoveredLosers  int
}

// Engine is a WAL transaction engine over a recovery log and a stable
// store.
type Engine struct {
	log    Log
	stable *StableStore
	opts   Options

	mu       sync.Mutex
	quiesce  *sync.Cond
	cache    map[string]int64
	dirty    map[string]bool
	nextTxn  uint64
	active   int
	sinceCkp int
	// checkpointing holds Begin at the gate from the moment a
	// checkpoint starts waiting for quiescence until its record is in
	// the log: a transaction that began in between would log updates
	// below the checkpoint record that recovery — which trusts the
	// record as a sharp cut — never replays.
	checkpointing bool
	stats         Stats

	locks *lockTable
	split *splitlog.Cache

	// streams is non-nil iff the log is a K > 1 multi-stream log (see
	// streams.go): transactions are then spread across the K streams and
	// recovery runs the dependency-ordered merged replay.
	streams []*core.Stream
}

// Open recovers the database state from the log and stable store and
// returns a ready engine.
func Open(log Log, stable *StableStore, opts Options) (*Engine, error) {
	if opts.LockTimeout == 0 {
		opts.LockTimeout = 2 * time.Second
	}
	e := &Engine{
		log:    log,
		stable: stable,
		opts:   opts,
		dirty:  make(map[string]bool),
		locks:  newLockTable(opts.LockTimeout),
	}
	e.quiesce = sync.NewCond(&e.mu)
	if opts.Split {
		e.split = splitlog.New(log)
	}
	e.initStreams()
	if err := e.recover(); err != nil {
		return nil, err
	}
	e.cache = stable.Snapshot()
	return e, nil
}

// Get returns a committed value outside any transaction (dirty reads
// of in-flight values are possible; use a transaction for isolation).
func (e *Engine) Get(key string) int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cache[key]
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// ForceRoundStats reports how the underlying log coalesced the
// engine's commit forces: total Force calls, protocol rounds actually
// executed, and calls satisfied by riding another committer's round.
// ok is false when the log does not coalesce (e.g. a local test log).
func (e *Engine) ForceRoundStats() (forces, rounds, groupCommits uint64, ok bool) {
	fc, ok := e.log.(forceCoalescer)
	if !ok {
		return 0, 0, 0, false
	}
	forces, rounds, groupCommits = fc.ForceRoundStats()
	return forces, rounds, groupCommits, true
}

// SplitStats returns the split cache statistics (zero value when
// splitting is disabled).
func (e *Engine) SplitStats() splitlog.Stats {
	if e.split == nil {
		return splitlog.Stats{}
	}
	return e.split.Stats()
}

// appendLog writes one engine record to the recovery log.
func (e *Engine) appendLog(r *logRec) (record.LSN, error) {
	return e.appendVia(e.log.WriteLog, r)
}

// appendVia writes one engine record through the given append function
// (the plain log, one stream, or a stream's commit-class append).
func (e *Engine) appendVia(write func(data []byte) (record.LSN, error), r *logRec) (record.LSN, error) {
	data := r.encode()
	lsn, err := write(data)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	e.stats.LogRecords++
	e.stats.LogBytes += uint64(len(data))
	e.mu.Unlock()
	return lsn, nil
}

// Txn is one transaction.
type Txn struct {
	e      *Engine
	id     uint64
	stream int // the log stream all of this transaction's records go to
	undo   []undoEntry
	lsns   []record.LSN // combined mode: update record LSNs for abort
	done   bool
}

type undoEntry struct {
	key    string
	oldVal int64
}

// Begin starts a transaction.
func (e *Engine) Begin() *Txn {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.checkpointing {
		e.quiesce.Wait()
	}
	e.nextTxn++
	e.active++
	e.stats.Begins++
	return &Txn{e: e, id: e.nextTxn, stream: e.txnStream(e.nextTxn)}
}

// ID returns the transaction identifier.
func (t *Txn) ID() uint64 { return t.id }

// Get reads a value under an exclusive lock (strict 2PL).
func (t *Txn) Get(key string) (int64, error) {
	if t.done {
		return 0, ErrTxnDone
	}
	if err := t.e.locks.acquire(t.id, key); err != nil {
		return 0, err
	}
	t.e.mu.Lock()
	defer t.e.mu.Unlock()
	return t.e.cache[key], nil
}

// Set writes a value, logging it write-ahead.
func (t *Txn) Set(key string, v int64) error { return t.update(key, v, nil) }

// SetNote writes a value with an application note carried in the log
// record (the examples use it for history lines; it also pads records
// to realistic ET1 sizes).
func (t *Txn) SetNote(key string, v int64, note []byte) error { return t.update(key, v, note) }

// Add adjusts a value by delta and returns the new value.
func (t *Txn) Add(key string, delta int64) (int64, error) {
	old, err := t.Get(key)
	if err != nil {
		return 0, err
	}
	return old + delta, t.update(key, old+delta, nil)
}

// AddNote is Add with a log note.
func (t *Txn) AddNote(key string, delta int64, note []byte) (int64, error) {
	old, err := t.Get(key)
	if err != nil {
		return 0, err
	}
	return old + delta, t.update(key, old+delta, note)
}

func (t *Txn) update(key string, newVal int64, note []byte) error {
	if t.done {
		return ErrTxnDone
	}
	if err := t.e.locks.acquire(t.id, key); err != nil {
		return err
	}
	t.e.mu.Lock()
	oldVal := t.e.cache[key]
	t.e.mu.Unlock()

	if t.e.split != nil {
		// Split: stream the redo component now; cache the undo
		// component (logged later only if the page is cleaned first).
		redo := &logRec{op: opRedo, txn: t.id, key: key, newVal: newVal, note: note}
		lsn, err := t.e.appendTxnLog(t, redo)
		if err != nil {
			return err
		}
		t.lsns = append(t.lsns, lsn)
		undo := &logRec{op: opUndo, txn: t.id, key: key, oldVal: oldVal}
		t.e.split.Put(t.id, key, undo.encode())
	} else {
		rec := &logRec{op: opUpdate, txn: t.id, key: key, oldVal: oldVal, newVal: newVal, note: note}
		lsn, err := t.e.appendTxnLog(t, rec)
		if err != nil {
			return err
		}
		t.lsns = append(t.lsns, lsn)
	}

	t.e.mu.Lock()
	t.e.cache[key] = newVal
	t.e.dirty[key] = true
	t.e.stats.Updates++
	t.e.mu.Unlock()
	t.undo = append(t.undo, undoEntry{key: key, oldVal: oldVal})
	return nil
}

// Savepoint returns a token for partial rollback (the long-running
// workstation transactions of Section 2 use frequent savepoints).
func (t *Txn) Savepoint() int { return len(t.undo) }

// RollbackTo undoes every update made after the savepoint was taken,
// logging the compensations as ordinary updates.
func (t *Txn) RollbackTo(sp int) error {
	if t.done {
		return ErrTxnDone
	}
	if sp < 0 || sp > len(t.undo) {
		return fmt.Errorf("recman: savepoint %d out of range", sp)
	}
	entries := append([]undoEntry(nil), t.undo[sp:]...)
	for i := len(entries) - 1; i >= 0; i-- {
		if err := t.update(entries[i].key, entries[i].oldVal, nil); err != nil {
			return err
		}
	}
	t.undo = t.undo[:sp]
	return nil
}

// Commit makes the transaction durable: the commit record is the one
// forced write of the transaction (Section 4.1: "only the final commit
// record written by a local ET1 transaction must be forced").
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	if _, err := t.e.appendTxnEnder(t, &logRec{op: opCommit, txn: t.id}); err != nil {
		return err
	}
	if err := t.e.forceTxn(t); err != nil {
		return err
	}
	if t.e.split != nil {
		t.e.split.OnCommit(t.id)
	}
	t.finish(true)
	return nil
}

// Abort rolls the transaction back. With splitting enabled, undo
// components come from the local cache; otherwise they are re-read
// from the log — the remote-read cost Section 5.2 argues the cache
// eliminates.
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	if t.e.split != nil {
		for _, data := range t.e.split.TakeForAbort(t.id) {
			r, err := decodeLogRec(data)
			if err != nil {
				return err
			}
			t.e.mu.Lock()
			t.e.cache[r.key] = r.oldVal
			t.e.dirty[r.key] = true
			t.e.mu.Unlock()
		}
		t.e.mu.Lock()
		t.e.stats.AbortsFromCache++
		t.e.mu.Unlock()
	} else {
		for i := len(t.lsns) - 1; i >= 0; i-- {
			rec, err := t.e.readTxnRecord(t, t.lsns[i])
			if err != nil {
				return fmt.Errorf("recman: abort read of LSN %d: %w", t.lsns[i], err)
			}
			t.e.mu.Lock()
			t.e.stats.AbortLogReads++
			t.e.mu.Unlock()
			r, err := decodeLogRec(rec.Data)
			if err != nil {
				return err
			}
			t.e.mu.Lock()
			cur := t.e.cache[r.key]
			t.e.cache[r.key] = r.oldVal
			t.e.dirty[r.key] = true
			t.e.mu.Unlock()
			// Log the compensation so redo-based recovery replays the
			// rollback in its correct position in the total order.
			clr := &logRec{op: opUpdate, txn: t.id, key: r.key, oldVal: cur, newVal: r.oldVal}
			if _, err := t.e.appendTxnLog(t, clr); err != nil {
				return err
			}
		}
	}
	if _, err := t.e.appendTxnEnder(t, &logRec{op: opAbort, txn: t.id}); err != nil {
		return err
	}
	t.finish(false)
	return nil
}

func (t *Txn) finish(committed bool) {
	t.done = true
	t.e.locks.releaseAll(t.id)
	t.e.mu.Lock()
	t.e.active--
	if committed {
		t.e.stats.Commits++
		t.e.sinceCkp++
	} else {
		t.e.stats.Aborts++
	}
	ckpt := t.e.opts.CheckpointEvery > 0 && t.e.sinceCkp >= t.e.opts.CheckpointEvery && t.e.active == 0
	t.e.quiesce.Broadcast()
	t.e.mu.Unlock()
	if ckpt {
		// Best effort; an explicit Checkpoint call reports errors.
		_ = t.e.Checkpoint()
	}
}

// FlushKey writes the key's current value to the stable store (page
// cleaning, possibly stealing an uncommitted value). The WAL rule is
// enforced: undo information reaches the log first, then the log is
// forced, then the page is written.
func (e *Engine) FlushKey(key string) error {
	if e.split != nil {
		if err := e.split.BeforeClean(key); err != nil {
			return err
		}
	}
	if err := e.forceAll(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.dirty[key] {
		return nil
	}
	e.stable.Set(key, e.cache[key])
	delete(e.dirty, key)
	e.stats.Flushes++
	return nil
}

// flushAllLocked cleans every dirty page under one application of the
// WAL rule: every stolen page's undo information reaches the log, the
// log is forced once — through the highest LSN, which covers them all —
// and then the pages are written. Caller holds e.mu; it is released
// while the log is forced.
func (e *Engine) flushAllLocked() error {
	keys := make([]string, 0, len(e.dirty))
	for k := range e.dirty {
		keys = append(keys, k)
	}
	e.mu.Unlock()
	var err error
	if e.split != nil {
		for _, k := range keys {
			if err = e.split.BeforeClean(k); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = e.forceAll()
	}
	e.mu.Lock()
	if err != nil {
		return err
	}
	for _, k := range keys {
		if e.dirty[k] {
			e.stable.Set(k, e.cache[k])
			delete(e.dirty, k)
			e.stats.Flushes++
		}
	}
	return nil
}

// Checkpoint quiesces the engine (holds new transactions at Begin and
// waits for active ones to finish), cleans every dirty page, and writes
// a checkpoint record so restart recovery can begin there instead of at
// the head of the log (a Section 5.3 space-management function).
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	for e.checkpointing {
		e.quiesce.Wait()
	}
	e.checkpointing = true
	defer func() {
		e.mu.Lock()
		e.checkpointing = false
		e.quiesce.Broadcast()
		e.mu.Unlock()
	}()
	for e.active > 0 {
		e.quiesce.Wait()
	}
	if err := e.flushAllLocked(); err != nil {
		e.mu.Unlock()
		return err
	}
	e.sinceCkp = 0
	e.stats.Checkpoints++
	e.mu.Unlock()

	if e.streams != nil {
		return e.checkpointStreams()
	}
	if e.opts.TruncateOnCheckpoint {
		if cw, ok := e.log.(checkpointWriter); ok {
			data := (&logRec{op: opCheckpoint}).encode()
			if _, err := cw.Checkpoint(data); err != nil {
				return fmt.Errorf("recman: checkpoint: %w", err)
			}
			e.mu.Lock()
			e.stats.LogRecords++
			e.stats.LogBytes += uint64(len(data))
			e.mu.Unlock()
			return nil
		}
	}
	ckptLSN, err := e.appendLog(&logRec{op: opCheckpoint})
	if err != nil {
		return err
	}
	if err := e.log.Force(); err != nil {
		return err
	}
	if e.opts.TruncateOnCheckpoint {
		if tr, ok := e.log.(prefixTruncator); ok {
			// Everything before the checkpoint record is unnecessary
			// for node recovery. (Media recovery relies on dumps; see
			// Section 5.3.)
			if err := tr.TruncatePrefix(ckptLSN); err != nil {
				return fmt.Errorf("recman: post-checkpoint truncation: %w", err)
			}
		}
	}
	return nil
}
