// Package storage implements the log server's stable storage (Section
// 4.3): an interleaved, append-only stream of log records from many
// clients, indexed per client by an append-forest, with interval lists
// kept in volatile memory.
//
// One engine implements the Store methods over a narrow medium
// interface, and two durable stores put it on a medium:
//
//   - SegStore cuts the stream into segment files with fsync-on-force,
//     and reclaims whole segments into an archive tier (Section 5.3);
//     the standalone UDP server daemon runs it.
//   - DiskStore layers the stream on the simulated track disk behind a
//     battery-backed NVRAM buffer (Section 5.1): appends and forces
//     complete at memory speed, full tracks are drained to disk, and
//     all committed data survives a power failure.
//
// MemStore keeps records in memory without framing (no durability;
// protocol tests and the paper's "second stage" prototype, which stored
// log data in server virtual memory). It shares only the index rules
// with the engine, which makes it the independent oracle the durable
// stores are checked against.
package storage

import (
	"errors"
	"sort"

	"distlog/internal/appendforest"
	"distlog/internal/record"
)

// Errors returned by stores.
var (
	// ErrNotStored is returned when the server stores no record with
	// the requested LSN for the client. Per Section 3.1.1 a log server
	// does not respond to reads for records it does not store; the
	// protocol layer maps this error to a negative response the client
	// treats accordingly.
	ErrNotStored = errors.New("storage: record not stored on this server")
	// ErrNoStagedCopies is returned by InstallCopies when nothing was
	// staged for the client and epoch.
	ErrNoStagedCopies = errors.New("storage: no staged copies to install")
	// ErrNotStaged is returned by InstallCopies when a span it must
	// cover is neither wholly staged nor already installed at the
	// epoch: the install overtook (or lost) some of its copies. Nothing
	// was written; the install may be retried once the copies land.
	ErrNotStaged = errors.New("storage: install range not wholly staged")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("storage: store is closed")
)

// Store is the stable-storage abstraction used by a log server node.
// Implementations must be safe for concurrent use.
type Store interface {
	// Append durably-stages one record for the client, enforcing the
	// non-decreasing LSN and epoch rules of Section 3.1.1. Data is
	// guaranteed stable only after Force returns.
	Append(c record.ClientID, rec record.Record) error

	// Force makes all previously appended records stable. For the
	// NVRAM-backed store this is a memory-speed no-op (the staging
	// buffer is itself non-volatile); for the segmented store it is
	// fsync.
	Force() error

	// Read returns the stored record with the highest epoch number for
	// the requested LSN. Records marked not-present are returned with
	// Present == false. ErrNotStored when no record with that LSN is
	// stored for the client.
	Read(c record.ClientID, lsn record.LSN) (record.Record, error)

	// ReadRange returns consecutive stored records starting at from and
	// running toward to (inclusive; descending LSNs when to < from),
	// each the copy Read would return. It stops early at the first LSN
	// the store does not hold, and once the records gathered reach
	// maxBytes of encoded size — but never before the first record.
	// ErrNotStored when from itself is not stored. One call replaces a
	// Read per record on the streaming read path.
	ReadRange(c record.ClientID, from, to record.LSN, maxBytes int) ([]record.Record, error)

	// Intervals returns the client's interval list: the epoch, low LSN
	// and high LSN of each consecutive sequence of stored records.
	Intervals(c record.ClientID) []record.Interval

	// LastKey returns the identifiers of the most recently appended
	// record for the client (zero values when none).
	LastKey(c record.ClientID) (record.LSN, record.Epoch)

	// Clients lists clients with stored records.
	Clients() []record.ClientID

	// StageCopy stages a CopyLog record. Staged records become part of
	// the log only when InstallCopies commits them; a crash before the
	// install discards them.
	StageCopy(c record.ClientID, rec record.Record) error

	// InstallCopies atomically installs all records staged for the
	// client with the given epoch, in LSN order, then clears the stage.
	// want names at most one span (more is an error), and every LSN
	// of it must be staged: otherwise, if the span is already
	// installed at the epoch (a retransmitted install), it succeeds
	// without writing anything, and if not it fails with ErrNotStaged
	// and writes nothing. With no span it requires only a non-empty
	// stage (ErrNoStagedCopies).
	InstallCopies(c record.ClientID, epoch record.Epoch, want ...Span) error

	// Truncate logically discards the client's records with LSNs below
	// before (Section 5.3 log space management: the client calls this
	// after a checkpoint or dump makes the prefix unnecessary for node
	// recovery). Truncated records vanish from interval lists and
	// reads; the client's high-water mark is retained, so LSNs are
	// never reused. At least one record is always kept: before is
	// clamped to the last stored LSN.
	Truncate(c record.ClientID, before record.LSN) error

	// Close releases resources. Further calls fail with ErrClosed.
	Close() error
}

// Usage is a store's space accounting, for the disk-usage gauges and
// `logctl du` (Section 5.3: a long-running server must report how
// much log space is live, how much the compactor could reclaim, and
// how much has migrated to the archive tier).
type Usage struct {
	// LiveBytes is the size of the online (hot) stream.
	LiveBytes int64
	// ReclaimableBytes is space compaction could return to the
	// filesystem.
	ReclaimableBytes int64
	// ArchivedBytes is the size of the write-once archive tier, when
	// one is attached.
	ArchivedBytes int64
	// ArchiveReclaimableBytes is archive space a retirement pass could
	// free right now: sealed volumes (and index files) wholly below
	// every client's truncation floor.
	ArchiveReclaimableBytes int64
	// Segments counts online segment files; the track-disk store
	// reports 1, the memory store 0.
	Segments int
	// SealedSegments counts segments closed to further appends.
	SealedSegments int
}

// UsageReporter is implemented by stores that can account for their
// space.
type UsageReporter interface {
	Usage() Usage
}

// ArchiveTier is the write-once cold tier segment compaction migrates
// stable records into (Section 4.3's append-forest representation;
// internal/retention implements it over an appendforest.PersistentForest).
type ArchiveTier interface {
	// Archive stores one record for the client. It must be idempotent
	// — re-archiving an (LSN, epoch) already stored is a no-op — and a
	// higher epoch for an archived LSN supersedes the older copy, so a
	// compaction retried after a crash converges.
	Archive(c record.ClientID, rec record.Record) error
	// Sync makes all preceding Archive calls durable.
	Sync() error
	// ReadRange returns the archived records from from toward to
	// (inclusive; descending when to < from), each the copy with the
	// highest epoch for its LSN. It stops at the first LSN the archive
	// holds nothing for and once the records gathered reach maxBytes of
	// encoded size, never before the first; an empty result means it
	// holds nothing for from.
	ReadRange(c record.ClientID, from, to record.LSN, maxBytes int) ([]record.Record, error)
	// Truncate reports the client's truncation floor: LSNs below it
	// can never be read again, so the archive may clamp reads there and
	// retire storage that holds nothing else. Floors only advance.
	Truncate(c record.ClientID, before record.LSN) error
	// Bytes reports the archive's stored size.
	Bytes() int64
}

// entryRef locates one stored record: its epoch (to resolve the
// highest-epoch-wins rule without fetching) and a backend-specific
// location (byte offset, or slice index for the memory store).
type entryRef struct {
	epoch   record.Epoch
	present bool
	loc     int64
}

// clientIndex is the volatile per-client index shared by all backends:
// the interval list, the last appended key (for sequencing checks), an
// append-forest over the client's strictly-increasing LSNs, and an
// overlay for recovery copies whose LSNs revisit old positions.
type clientIndex struct {
	intervals []record.Interval
	lastLSN   record.LSN
	lastEpoch record.Epoch
	forest    appendforest.Forest[entryRef]
	overlay   map[record.LSN]entryRef
	// truncated is the lowest LSN still served; records below were
	// discarded by Truncate.
	truncated record.LSN
}

func newClientIndex() *clientIndex {
	return &clientIndex{overlay: make(map[record.LSN]entryRef)}
}

// index records the entry in the forest (dense increasing path) or the
// overlay (revisited LSNs), updates the interval list, and advances
// the last-key watermark.
//
// A record below the truncation point (an installed recovery copy
// revisiting an LSN the client already truncated away) advances the
// watermarks but is not indexed and does not extend the interval
// list: lookup() denies the range, so advertising it would make the
// server claim intervals whose reads it then refuses — and the
// divergence would persist across a crash, since replay runs through
// this same path.
func (ci *clientIndex) index(rec record.Record, loc int64) {
	if rec.LSN >= ci.truncated {
		ref := entryRef{epoch: rec.Epoch, present: rec.Present, loc: loc}
		if err := ci.forest.Append(uint64(rec.LSN), ref); err != nil {
			// LSN revisits an indexed position: keep the highest epoch.
			if old, ok := ci.overlay[rec.LSN]; !ok || rec.Epoch >= old.epoch {
				ci.overlay[rec.LSN] = ref
			}
		}
		ci.intervals = record.ExtendIntervals(ci.intervals, rec)
	}
	if rec.LSN > ci.lastLSN {
		ci.lastLSN = rec.LSN
	}
	if rec.Epoch > ci.lastEpoch {
		ci.lastEpoch = rec.Epoch
	}
}

// truncate clips the index below before, clamped so the last record is
// always retained (preserving the client's LSN high-water mark).
func (ci *clientIndex) truncate(before record.LSN) {
	if before > ci.lastLSN {
		before = ci.lastLSN
	}
	if before <= ci.truncated {
		return
	}
	ci.truncated = before
	kept := ci.intervals[:0]
	for _, iv := range ci.intervals {
		if iv.High < before {
			continue
		}
		if iv.Low < before {
			iv.Low = before
		}
		kept = append(kept, iv)
	}
	ci.intervals = kept
	for lsn := range ci.overlay {
		if lsn < before {
			delete(ci.overlay, lsn)
		}
	}
}

// lookup resolves an LSN to the highest-epoch entry.
func (ci *clientIndex) lookup(lsn record.LSN) (entryRef, bool) {
	if lsn < ci.truncated {
		return entryRef{}, false
	}
	fRef, fOK := ci.forest.Lookup(uint64(lsn))
	oRef, oOK := ci.overlay[lsn]
	switch {
	case fOK && oOK:
		if oRef.epoch >= fRef.epoch {
			return oRef, true
		}
		return fRef, true
	case fOK:
		return fRef, true
	case oOK:
		return oRef, true
	default:
		return entryRef{}, false
	}
}

// lookupRef resolves (client, LSN) in a backend's index map, mapping a
// miss at either level to ErrNotStored.
func lookupRef(clients map[record.ClientID]*clientIndex, c record.ClientID, lsn record.LSN) (entryRef, error) {
	if ci := clients[c]; ci != nil {
		if ref, ok := ci.lookup(lsn); ok {
			return ref, nil
		}
	}
	return entryRef{}, ErrNotStored
}

// readRange assembles a ReadRange reply from a backend's own
// record-at-a-time read (called with the backend's lock held). A
// failure past the first record ends the batch; the caller's next call
// starts there and reports it.
func readRange(from, to record.LSN, maxBytes int, read func(record.LSN) (record.Record, error)) ([]record.Record, error) {
	g := rangeGather{to: to, back: to < from, maxBytes: maxBytes}
	for lsn := from; ; lsn = g.next(lsn) {
		rec, err := read(lsn)
		if err != nil {
			return g.fail(err)
		}
		if g.add(rec) {
			return g.out, nil
		}
	}
}

// rangeGather collects a ReadRange reply.
type rangeGather struct {
	to       record.LSN
	back     bool
	maxBytes int
	out      []record.Record
	size     int
}

// add appends rec and reports whether the reply is complete: the range
// reached its end or the byte budget.
func (g *rangeGather) add(rec record.Record) bool {
	g.out = append(g.out, rec)
	g.size += rec.EncodedSize()
	return rec.LSN == g.to || g.size >= g.maxBytes
}

// next is the LSN after lsn in the range's direction.
func (g *rangeGather) next(lsn record.LSN) record.LSN {
	if g.back {
		return lsn - 1
	}
	return lsn + 1
}

// fail ends the reply at a failed read: the error itself when nothing
// was gathered, otherwise the records so far.
func (g *rangeGather) fail(err error) ([]record.Record, error) {
	if len(g.out) == 0 {
		return nil, err
	}
	return g.out, nil
}

// Span is an inclusive LSN range; one with High < Low is empty.
type Span struct {
	Low, High record.LSN
}

// installSpan returns the one span an InstallCopies call names, or
// nil for none. The argument is variadic only so that callers naming
// no span keep compiling; more than one span is refused.
func installSpan(want []Span) (*Span, error) {
	switch len(want) {
	case 0:
		return nil, nil
	case 1:
		return &want[0], nil
	}
	return nil, errors.New("storage: InstallCopies takes at most one span")
}

// stageKey identifies a staging area.
type stageKey struct {
	client record.ClientID
	epoch  record.Epoch
}

// stagedRec is a staged CopyLog record together with its stream
// location (durable backends write staged records to the stream
// immediately; the location lets InstallCopies index them without
// rewriting the data).
type stagedRec struct {
	rec record.Record
	loc int64
}

// stage is the shared CopyLog staging area. Staged records become part
// of the log only at install; duplicates (same LSN) keep the last
// arrival, which lets a client retry CopyLog calls idempotently.
type stage struct {
	records map[stageKey]map[record.LSN]stagedRec
}

func newStage() *stage {
	return &stage{records: make(map[stageKey]map[record.LSN]stagedRec)}
}

func (s *stage) add(c record.ClientID, rec record.Record, loc int64) {
	k := stageKey{c, rec.Epoch}
	m := s.records[k]
	if m == nil {
		m = make(map[record.LSN]stagedRec)
		s.records[k] = m
	}
	m[rec.LSN] = stagedRec{rec: rec.Clone(), loc: loc}
}

// take removes and returns the staged records for (client, epoch) in
// LSN order.
func (s *stage) take(c record.ClientID, epoch record.Epoch) []stagedRec {
	k := stageKey{c, epoch}
	m := s.records[k]
	if len(m) == 0 {
		return nil
	}
	delete(s.records, k)
	out := make([]stagedRec, 0, len(m))
	for _, sr := range m {
		out = append(out, sr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].rec.LSN < out[j].rec.LSN })
	return out
}

// holds reports whether the stage for (client, epoch) has a record at
// every LSN of sp.
func (s *stage) holds(c record.ClientID, epoch record.Epoch, sp Span) bool {
	if sp.High < sp.Low {
		return true
	}
	m := s.records[stageKey{c, epoch}]
	n := uint64(sp.High - sp.Low)
	if n >= uint64(len(m)) {
		return false // more LSNs than staged records
	}
	for i := uint64(0); i <= n; i++ {
		if _, ok := m[sp.Low+record.LSN(i)]; !ok {
			return false
		}
	}
	return true
}

// dropBelow drops the client's staging areas at epochs below epoch.
func (s *stage) dropBelow(c record.ClientID, epoch record.Epoch) {
	for k := range s.records {
		if k.client == c && k.epoch < epoch {
			delete(s.records, k)
		}
	}
}

// sortedClients returns map keys in a stable order.
func sortedClients[V any](m map[record.ClientID]V) []record.ClientID {
	out := make([]record.ClientID, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
