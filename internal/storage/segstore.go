package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
)

// SegStore is the log server's long-running durable backend (Section
// 5.3, log space management): the same interleaved stream FileStore
// appends to one file is cut into fixed-capacity segment files, so
// space can be returned to the filesystem a whole segment at a time.
// When an append would overflow the active segment, the segment is
// synced, sealed, and a new one opened; sealed segments are immutable.
//
// Reclamation works on the oldest sealed segment: records still live
// (at or above their client's truncation point) are migrated into the
// write-once ArchiveTier, the segment's effects are folded into a
// durable manifest that seeds replay (so recovery never needs the
// deleted bytes), and the segment file is deleted. The manifest plus
// the surviving segments always replay to exactly the state the full
// stream would have produced. Reads transparently span the tiers: the
// volatile index resolves an LSN to a byte offset, and offsets below
// the fold boundary are served from the archive.
//
// s.mu is never held across a call into the archive: archive I/O
// (syncs, retirement rewrites) must not queue appends and forces.
type SegStore struct {
	mu sync.Mutex
	// compactMu serializes CompactOnce passes. It is never taken by the
	// foreground paths, so compaction's fsyncs (archive, manifest)
	// cannot stall an append or force.
	compactMu sync.Mutex
	// floorMu guards floors: the truncation points reported since the
	// archive was last called. Truncate only records them here; the next
	// archive call hands them over first (passFloors).
	floorMu sync.Mutex
	floors  map[record.ClientID]record.LSN

	dir  string
	opts SegOptions

	segs     []*segment // base-ascending; the last is the active tail
	boundary int64      // stream offset below which segments were folded away

	// baseMeta is the replay state at the boundary: what the manifest
	// serializes, and what folded segments are applied to. It advances
	// only during compaction; the live indexes below are always ahead
	// of (or equal to) it.
	baseMeta *replayState

	clients map[record.ClientID]*clientIndex
	stage   *stage

	dirty     bool
	appendGen uint64 // bumped per append; Force clears dirty only if unchanged
	closed    bool

	scratch []byte
}

// SegOptions configures OpenSegStore.
type SegOptions struct {
	// SegmentBytes is the capacity at which the active segment seals
	// and a fresh one opens. Zero means 64 MiB. A single entry larger
	// than the capacity still fits: it gets a fresh segment to itself.
	SegmentBytes int64
	// Archive, when non-nil, is the write-once cold tier compaction
	// migrates live records into. Without one, CompactOnce can only
	// reclaim segments whose records truncation has made fully dead.
	Archive ArchiveTier
}

func (o *SegOptions) fillDefaults() {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 64 << 20
	}
}

// segment is one on-disk piece of the stream. Locations handed to the
// index are absolute stream offsets: base + offset-in-file, so the
// index never changes when segments are reclaimed.
type segment struct {
	base   int64
	size   int64
	f      *os.File
	path   string
	sealed bool
}

func (g *segment) end() int64 { return g.base + g.size }

const segManifestName = "MANIFEST"

func segFileName(base int64) string {
	return fmt.Sprintf("seg-%020d.log", base)
}

func parseSegBase(name string) (int64, bool) {
	if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	base, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log"), 10, 64)
	if err != nil || base < 0 {
		return 0, false
	}
	return base, true
}

// OpenSegStore opens (creating if needed) a segmented store in dir:
// the manifest is loaded, stray segments below its boundary (left by a
// crash between a manifest advance and the file removal) are deleted,
// and the surviving segments are replayed over the manifest state.
func OpenSegStore(dir string, opts SegOptions) (*SegStore, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, err := loadManifest(filepath.Join(dir, segManifestName))
	if err != nil {
		return nil, err
	}
	s := &SegStore{dir: dir, opts: opts, boundary: man.boundary, baseMeta: man.seed()}
	live := man.seed()

	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var bases []int64
	for _, de := range names {
		base, ok := parseSegBase(de.Name())
		if !ok {
			continue
		}
		if base < man.boundary {
			// Folded into the manifest before the crash; its bytes must
			// not replay again.
			if err := os.Remove(filepath.Join(dir, de.Name())); err != nil {
				return nil, err
			}
			continue
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })

	next := man.boundary
	for i, base := range bases {
		if base != next {
			return nil, fmt.Errorf("storage: segment gap in %s: want base %d, have %d", dir, next, base)
		}
		g, err := s.openSegment(base)
		if err != nil {
			s.closeFiles()
			return nil, err
		}
		last := i == len(bases)-1
		if err := s.replaySegment(live, g, last); err != nil {
			s.closeFiles()
			return nil, err
		}
		g.sealed = !last
		s.segs = append(s.segs, g)
		next = g.end()
	}
	if len(s.segs) == 0 {
		g, err := s.createSegment(man.boundary)
		if err != nil {
			return nil, err
		}
		s.segs = append(s.segs, g)
	}
	s.clients = live.clients
	s.stage = live.stage
	// Re-assert the replayed truncation floors on the cold tier, so an
	// archive that lost its in-memory floors to the crash clamps reads
	// again before anything is looked up.
	for c, ci := range s.clients {
		s.noteFloor(c, ci.truncated)
	}
	return s, nil
}

// noteFloor records a truncation floor for the archive; the next
// archive call hands it over.
func (s *SegStore) noteFloor(c record.ClientID, floor record.LSN) {
	if s.opts.Archive == nil || floor == 0 {
		return
	}
	s.floorMu.Lock()
	defer s.floorMu.Unlock()
	if s.floors == nil {
		s.floors = make(map[record.ClientID]record.LSN)
	}
	s.floors[c] = max(s.floors[c], floor)
}

// passFloors hands the archive the truncation floors noted since the
// last archive call. Called before every archive call, without s.mu.
func (s *SegStore) passFloors() error {
	s.floorMu.Lock()
	floors := s.floors
	s.floors = nil
	s.floorMu.Unlock()
	for c, floor := range floors {
		if err := s.opts.Archive.Truncate(c, floor); err != nil {
			for c, floor := range floors {
				s.noteFloor(c, floor)
			}
			return err
		}
	}
	return nil
}

func (s *SegStore) openSegment(base int64) (*segment, error) {
	path := filepath.Join(s.dir, segFileName(base))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &segment{base: base, size: info.Size(), f: f, path: path}, nil
}

func (s *SegStore) createSegment(base int64) (*segment, error) {
	path := filepath.Join(s.dir, segFileName(base))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	syncDir(s.dir)
	return &segment{base: base, f: f, path: path}, nil
}

// replaySegment applies one segment's frames to the replay state. Only
// the final (active) segment may carry a torn tail frame — it is
// truncated away, exactly as FileStore recovers. A torn frame in a
// sealed segment is corruption: seals sync before the next segment
// accepts a byte, so a crash can never tear anything but the tail.
func (s *SegStore) replaySegment(rs *replayState, g *segment, last bool) error {
	data := make([]byte, g.size)
	if g.size > 0 {
		if _, err := g.f.ReadAt(data, 0); err != nil {
			return err
		}
	}
	off := int64(0)
	for off < g.size {
		e, n, err := decodeFrame(data[off:])
		if err != nil || n == 0 {
			if !last {
				return fmt.Errorf("storage: corrupt frame in sealed segment %s at %d: %v", g.path, off, err)
			}
			break
		}
		if err := rs.apply(e, g.base+off); err != nil {
			return fmt.Errorf("storage: segment replay %s at %d: %w", g.path, off, err)
		}
		off += int64(n)
	}
	if off < g.size {
		if err := g.f.Truncate(off); err != nil {
			return err
		}
		g.size = off
	}
	return nil
}

func (s *SegStore) closeFiles() {
	for _, g := range s.segs {
		g.f.Close()
	}
}

func (s *SegStore) active() *segment { return s.segs[len(s.segs)-1] }

func (s *SegStore) client(c record.ClientID) *clientIndex {
	ci := s.clients[c]
	if ci == nil {
		ci = newClientIndex()
		s.clients[c] = ci
	}
	return ci
}

// sealActiveLocked syncs and seals the active segment and opens a
// fresh one after it. Caller holds s.mu.
func (s *SegStore) sealActiveLocked() error {
	a := s.active()
	if err := a.f.Sync(); err != nil {
		return err
	}
	a.sealed = true
	faultpoint.Hit(FPSegmentSeal)
	g, err := s.createSegment(a.end())
	if err != nil {
		return err
	}
	s.segs = append(s.segs, g)
	return nil
}

func (s *SegStore) appendEntry(entry []byte) (int64, error) {
	a := s.active()
	if a.size > 0 && a.size+int64(len(entry)) > s.opts.SegmentBytes {
		if err := s.sealActiveLocked(); err != nil {
			return 0, err
		}
		a = s.active()
	}
	loc := a.base + a.size
	if _, err := a.f.WriteAt(entry, a.size); err != nil {
		return 0, err
	}
	a.size += int64(len(entry))
	s.dirty = true
	s.appendGen++
	return loc, nil
}

// Append implements Store.
func (s *SegStore) Append(c record.ClientID, rec record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	ci := s.client(c)
	if err := record.ValidateAppend(ci.lastLSN, ci.lastEpoch, rec); err != nil {
		return err
	}
	s.scratch = encodeRecordEntry(s.scratch[:0], kindRecord, c, rec)
	loc, err := s.appendEntry(s.scratch)
	if err != nil {
		return err
	}
	ci.index(rec, loc)
	return nil
}

// Force implements Store: fsync the active segment (sealed segments
// were synced when they sealed). The mutex is released for the fsync
// itself, with the same generation guard FileStore uses, so concurrent
// appenders can join a server-side force group while the device waits.
func (s *SegStore) Force() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	faultpoint.Hit(FPForce)
	if !s.dirty {
		s.mu.Unlock()
		return nil
	}
	gen := s.appendGen
	f := s.active().f
	s.mu.Unlock()
	err := f.Sync()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.closed {
			return ErrClosed
		}
		return err
	}
	if s.appendGen == gen && s.active().f == f {
		s.dirty = false
	}
	return nil
}

// Read implements Store.
func (s *SegStore) Read(c record.ClientID, lsn record.LSN) (record.Record, error) {
	recs, err := s.ReadRange(c, lsn, lsn, 0)
	if err != nil {
		return record.Record{}, err
	}
	return recs[0], nil
}

// ReadRange implements Store. The index routes every LSN: hot records
// are decoded out of one pread per contiguous extent of the stream
// rather than two per record (a client's consecutive LSNs sit at
// ascending offsets, adjacent unless another client's appends
// interleave), and each stretch of LSNs the index places in the archive
// is handed to it as one range, with s.mu released for the archive's
// I/O.
func (s *SegStore) ReadRange(c record.ClientID, from, to record.LSN, maxBytes int) ([]record.Record, error) {
	g := rangeGather{to: to, back: to < from, maxBytes: maxBytes}
	ext := extent{span: max(2*maxBytes, 4096), backward: g.back}
	for lsn := from; ; {
		s.mu.Lock()
		run, done, err := s.readHotLocked(c, &g, &ext, lsn)
		s.mu.Unlock()
		if err == nil && !done {
			done, err = s.readCold(c, &g, run)
		}
		if err != nil {
			return g.fail(err)
		}
		if done {
			return g.out, nil
		}
		lsn = g.next(run.to)
	}
}

// Where the index places an LSN.
const (
	nowhere        = iota
	inSegment      // at a live segment offset
	inArchive      // at an offset below the fold boundary: the archive holds it
	maybeInArchive // not indexed (a reopened index covers only the hot tier) but not truncated either: the archive holds it or nothing does
)

func (s *SegStore) locate(ci *clientIndex, lsn record.LSN) (int, entryRef) {
	ref, ok := ci.lookup(lsn)
	switch {
	case ok && ref.loc >= s.boundary:
		return inSegment, ref
	case ok:
		return inArchive, ref
	case s.opts.Archive != nil && lsn >= ci.truncated && lsn <= ci.lastLSN:
		return maybeInArchive, ref
	}
	return nowhere, ref
}

// coldRun is a stretch of consecutive LSNs the index routes to the
// archive.
type coldRun struct {
	from, to record.LSN
	indexed  bool // from is inArchive: the archive must hold it
}

// maxColdRun bounds how many LSNs one cold run covers.
const maxColdRun = 1024

// readHotLocked serves the range from lsn on out of the segments until
// it is done or reaches an LSN the archive must serve, and returns the
// cold run starting there. Caller holds s.mu.
func (s *SegStore) readHotLocked(c record.ClientID, g *rangeGather, ext *extent, lsn record.LSN) (coldRun, bool, error) {
	if s.closed {
		return coldRun{}, true, ErrClosed
	}
	ci := s.clients[c]
	if ci == nil {
		return coldRun{}, true, ErrNotStored
	}
	for ; ; lsn = g.next(lsn) {
		where, ref := s.locate(ci, lsn)
		switch where {
		case nowhere:
			return coldRun{}, true, ErrNotStored
		case inSegment:
			e, err := s.fetchEntry(ref.loc, ext)
			if err != nil {
				return coldRun{}, true, err
			}
			if g.add(e.rec) {
				return coldRun{}, true, nil
			}
			continue
		}
		run := coldRun{from: lsn, to: lsn, indexed: where == inArchive}
		for n := 1; run.to != g.to && n < maxColdRun; n++ {
			if w, _ := s.locate(ci, g.next(run.to)); w != inArchive && w != maybeInArchive {
				break
			}
			run.to = g.next(run.to)
		}
		return run, false, nil
	}
}

// readCold serves a cold run from the archive and reports whether the
// range is done. Called without s.mu.
func (s *SegStore) readCold(c record.ClientID, g *rangeGather, run coldRun) (bool, error) {
	if s.opts.Archive == nil {
		return true, fmt.Errorf("storage: LSN %d archived but no archive tier configured", run.from)
	}
	if err := s.passFloors(); err != nil {
		return true, err
	}
	recs, err := s.opts.Archive.ReadRange(c, run.from, run.to, g.maxBytes-g.size)
	if err != nil {
		return true, err
	}
	if len(recs) == 0 {
		if run.indexed {
			return true, fmt.Errorf("storage: LSN %d below fold boundary but missing from archive", run.from)
		}
		return true, ErrNotStored
	}
	want := run.from
	for _, rec := range recs {
		if rec.LSN != want {
			return true, fmt.Errorf("storage: archive returned LSN %d for %d", rec.LSN, want)
		}
		if g.add(rec) {
			return true, nil
		}
		want = g.next(want)
	}
	// A run the archive served only in part ends the range: the next
	// LSN is one the archive does not hold.
	return recs[len(recs)-1].LSN != run.to, nil
}

// extent is a window of one segment's bytes held across the reads of a
// ReadRange call.
type extent struct {
	span     int  // bytes per window
	backward bool // the scan descends: a window ends with the frame that missed
	base     int64
	buf      []byte
}

// frameAt returns the complete frame at absolute offset loc, if the
// window holds all of it.
func (x *extent) frameAt(loc int64) ([]byte, bool) {
	off := loc - x.base
	if off < 0 || off+frameOverhead > int64(len(x.buf)) {
		return nil, false
	}
	end := off + frameOverhead + int64(binary.BigEndian.Uint32(x.buf[off+1:off+5]))
	if end > int64(len(x.buf)) {
		return nil, false
	}
	return x.buf[off:end], true
}

// fetchEntry reads and decodes the frame at the absolute offset: a
// header read and a frame read. With an extent, a miss instead reads a
// window of the segment positioned to cover the frames the scan reaches
// next — forward in a single read, backward after the header read that
// tells where the frame (and so the window) ends. Caller holds s.mu.
func (s *SegStore) fetchEntry(loc int64, ext *extent) (streamEntry, error) {
	if ext != nil {
		if frame, ok := ext.frameAt(loc); ok {
			e, _, err := decodeFrame(frame)
			return e, err
		}
	}
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].end() > loc })
	if i == len(s.segs) || s.segs[i].base > loc {
		return streamEntry{}, fmt.Errorf("storage: offset %d not in any live segment", loc)
	}
	g := s.segs[i]
	if ext != nil && !ext.backward {
		ext.base, ext.buf = loc, make([]byte, min(g.end()-loc, int64(ext.span)))
		if _, err := g.f.ReadAt(ext.buf, loc-g.base); err != nil {
			return streamEntry{}, err
		}
		if frame, ok := ext.frameAt(loc); ok {
			e, _, err := decodeFrame(frame)
			return e, err
		}
		// A frame longer than the window: read it exactly, below.
	}
	var header [frameOverhead]byte
	if _, err := g.f.ReadAt(header[:], loc-g.base); err != nil {
		return streamEntry{}, err
	}
	frameEnd := loc + frameOverhead + int64(binary.BigEndian.Uint32(header[1:5]))
	lo := loc
	if ext != nil && ext.backward {
		lo = max(g.base, min(loc, frameEnd-int64(ext.span)))
	}
	buf := make([]byte, frameEnd-lo)
	if _, err := g.f.ReadAt(buf, lo-g.base); err != nil {
		return streamEntry{}, err
	}
	if ext != nil && ext.backward {
		ext.base, ext.buf = lo, buf
	}
	e, _, err := decodeFrame(buf[loc-lo:])
	return e, err
}

// Intervals implements Store.
func (s *SegStore) Intervals(c record.ClientID) []record.Interval {
	s.mu.Lock()
	defer s.mu.Unlock()
	ci := s.clients[c]
	if ci == nil {
		return nil
	}
	out := make([]record.Interval, len(ci.intervals))
	copy(out, ci.intervals)
	return out
}

// LastKey implements Store.
func (s *SegStore) LastKey(c record.ClientID) (record.LSN, record.Epoch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ci := s.clients[c]
	if ci == nil {
		return 0, 0
	}
	return ci.lastLSN, ci.lastEpoch
}

// Clients implements Store.
func (s *SegStore) Clients() []record.ClientID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedClients(s.clients)
}

// StageCopy implements Store.
func (s *SegStore) StageCopy(c record.ClientID, rec record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.scratch = encodeRecordEntry(s.scratch[:0], kindStagedCopy, c, rec)
	loc, err := s.appendEntry(s.scratch)
	if err != nil {
		return err
	}
	return s.stage.add(c, rec, loc)
}

// InstallCopies implements Store. As in FileStore, the commit marker
// is synced before the install is acknowledged.
func (s *SegStore) InstallCopies(c record.ClientID, epoch record.Epoch) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	staged := s.stage.take(c, epoch)
	if len(staged) == 0 {
		return ErrNoStagedCopies
	}
	s.scratch = encodeInstallEntry(s.scratch[:0], c, epoch)
	if _, err := s.appendEntry(s.scratch); err != nil {
		return err
	}
	if err := s.active().f.Sync(); err != nil {
		return err
	}
	s.dirty = false
	ci := s.client(c)
	for _, sr := range staged {
		if err := faultpoint.HitErr(FPInstallPartial); err != nil {
			return err
		}
		if err := ci.addInstalled(sr.rec, sr.loc); err != nil {
			return err
		}
	}
	return nil
}

// DiscardStage drops every staging area for the client. A pending
// stage pins the segments its copies were written to (CompactOnce
// skips them); when a client restart abandons a recovery attempt, the
// server can discard its stage so compaction is released. The discard
// is volatile — replay after a crash re-stages the copies, and the
// install marker they were waiting for never arrives, so they stay
// un-indexed exactly as before.
func (s *SegStore) DiscardStage(c record.ClientID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stage.discard(c)
}

// Truncate implements Store. The truncation point is appended to the
// stream; CompactOnce reclaims whole segments it kills. The cold tier
// clamps its reads at the same floor and uses it to retire dead
// volumes, but learns it only at the next archive call: this path
// never waits on archive I/O.
func (s *SegStore) Truncate(c record.ClientID, before record.LSN) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	ci := s.clients[c]
	if ci == nil {
		return ErrNotStored
	}
	s.scratch = encodeTruncateEntry(s.scratch[:0], c, before)
	if _, err := s.appendEntry(s.scratch); err != nil {
		return err
	}
	ci.truncate(before)
	s.noteFloor(c, ci.truncated)
	return nil
}

// Checkpoint writes the interval lists of every client into the
// stream, bounding how far a replay must scan to reconstruct them.
func (s *SegStore) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	lists := make(map[record.ClientID][]record.Interval, len(s.clients))
	for c, ci := range s.clients {
		ivs := make([]record.Interval, len(ci.intervals))
		copy(ivs, ci.intervals)
		lists[c] = ivs
	}
	s.scratch = encodeCheckpointEntry(s.scratch[:0], lists)
	_, err := s.appendEntry(s.scratch)
	return err
}

// archiveItem is one live record CompactOnce migrates to the cold
// tier.
type archiveItem struct {
	c   record.ClientID
	rec record.Record
}

// CompactOnce reclaims the oldest sealed segment, if any: its live
// records are migrated into the archive tier, its effects are folded
// into the manifest (advancing the replay boundary), and the file is
// deleted. It reports whether a segment was reclaimed. A segment
// referenced by pending staged copies is skipped — the stage resolves
// at the next InstallCopies or client restart, and compaction retries
// then.
//
// Crash ordering (audited by the retention.* faultpoints): archive
// write + sync, then manifest advance, then file removal. A crash
// after the archive sync re-archives idempotently on retry; a crash
// after the manifest advance leaves a stray file the next open
// deletes without replaying.
func (s *SegStore) CompactOnce() (bool, error) {
	// One compaction at a time: the victim choice, the boundary
	// advance, and the manifest write must not interleave with another
	// pass. Foreground appends and forces only ever take s.mu, which
	// this path holds briefly — never across an fsync.
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	// Every pass hands over the floors reported since the last one, so
	// the retirement pass the compactor runs next sees them.
	if s.opts.Archive != nil {
		if err := s.passFloors(); err != nil {
			return false, err
		}
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, ErrClosed
	}
	if len(s.segs) < 2 {
		s.mu.Unlock()
		return false, nil
	}
	victim := s.segs[0]
	// Pending staged copies referencing the victim pin it: their
	// install must index data the segment still holds.
	for _, m := range s.stage.records {
		for _, sr := range m {
			if sr.loc >= victim.base && sr.loc < victim.end() {
				s.mu.Unlock()
				return false, nil
			}
		}
	}
	size := victim.size
	f := victim.f
	s.mu.Unlock()

	// The victim is sealed and immutable: read and decode it without
	// the lock.
	data := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(data, 0); err != nil {
			return false, err
		}
	}
	type segEntry struct {
		e   streamEntry
		loc int64
	}
	var entries []segEntry
	for off := int64(0); off < size; {
		e, n, err := decodeFrame(data[off:])
		if err != nil || n == 0 {
			return false, fmt.Errorf("storage: corrupt frame in sealed segment %s at %d: %v", victim.path, off, err)
		}
		entries = append(entries, segEntry{e: e, loc: victim.base + off})
		off += int64(n)
	}

	// Select the records the index still serves from this segment.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, ErrClosed
	}
	var live []archiveItem
	for _, se := range entries {
		if se.e.kind != kindRecord && se.e.kind != kindStagedCopy {
			continue
		}
		ci := s.clients[se.e.client]
		if ci == nil {
			continue
		}
		if ref, ok := ci.lookup(se.e.rec.LSN); ok && ref.loc == se.loc {
			live = append(live, archiveItem{c: se.e.client, rec: se.e.rec})
		}
	}
	s.mu.Unlock()

	if len(live) > 0 {
		if s.opts.Archive == nil {
			// Nowhere to migrate live records: the segment must be kept.
			return false, nil
		}
		for _, it := range live {
			if err := s.opts.Archive.Archive(it.c, it.rec); err != nil {
				return false, err
			}
		}
		if err := s.opts.Archive.Sync(); err != nil {
			return false, err
		}
	}
	if err := faultpoint.HitErr(FPArchivePublish); err != nil {
		return false, err
	}

	// Fold the segment into the base state and advance the boundary.
	// From here on, reads of the victim's offsets go to the archive;
	// if the manifest write below fails, the in-memory state is merely
	// ahead of the durable manifest — the same as a crash before the
	// advance, which the next open replays correctly.
	s.mu.Lock()
	for _, se := range entries {
		if err := s.baseMeta.apply(se.e, se.loc); err != nil {
			s.mu.Unlock()
			return false, fmt.Errorf("storage: folding segment %s: %w", victim.path, err)
		}
	}
	s.boundary = victim.end()
	s.segs = s.segs[1:]
	buf := s.encodeManifestLocked()
	s.mu.Unlock()
	// The manifest fsync happens outside s.mu so compaction never
	// stalls a foreground force; compactMu orders concurrent writers.
	if err := s.writeManifestFile(buf); err != nil {
		return false, err
	}

	victim.f.Close()
	if err := faultpoint.HitErr(FPSegmentDelete); err != nil {
		return false, err
	}
	if err := os.Remove(victim.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return false, err
	}
	return true, nil
}

// Usage implements UsageReporter. ReclaimableBytes counts sealed
// segments — the space compaction can return to the online tier.
func (s *SegStore) Usage() Usage {
	var u Usage
	s.mu.Lock()
	for _, g := range s.segs {
		u.LiveBytes += g.size
		u.Segments++
		if g.sealed {
			u.SealedSegments++
			u.ReclaimableBytes += g.size
		}
	}
	s.mu.Unlock()
	if s.opts.Archive != nil {
		// Usage has no error to report; a failed hand-over is retried
		// by the next archive call.
		_ = s.passFloors()
		u.ArchivedBytes = s.opts.Archive.Bytes()
		if r, ok := s.opts.Archive.(interface{ ReclaimableBytes() int64 }); ok {
			u.ArchiveReclaimableBytes = r.ReclaimableBytes()
		}
	}
	return u
}

// Boundary returns the replay boundary: the stream offset below which
// segments have been folded into the manifest and their live records
// archived.
func (s *SegStore) Boundary() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.boundary
}

// Close implements Store, syncing and closing every segment.
func (s *SegStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	if err := s.active().f.Sync(); err != nil {
		errs = append(errs, err)
	}
	for _, g := range s.segs {
		if err := g.f.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// --- manifest ---------------------------------------------------------

// manifestState is the durable replay base: the per-client index
// scalars and interval lists at the fold boundary, plus the metadata
// of copies staged below the boundary but not yet installed there
// (their data, being live, was archived; an install marker replayed
// from a surviving segment indexes them by their old offsets, which
// the read path redirects to the archive).
type manifestState struct {
	boundary int64
	clients  []manifestClient
	staged   []manifestStaged
}

type manifestClient struct {
	id        record.ClientID
	truncated record.LSN
	lastLSN   record.LSN
	lastEpoch record.Epoch
	intervals []record.Interval
}

type manifestStaged struct {
	client  record.ClientID
	epoch   record.Epoch
	lsn     record.LSN
	present bool
	loc     int64
}

// seed builds a fresh replay state representing the manifest: each
// call returns independent instances, so the live index and the fold
// base can both start from it.
func (m *manifestState) seed() *replayState {
	rs := newReplayState()
	for _, mc := range m.clients {
		ci := newClientIndex()
		ci.truncated = mc.truncated
		ci.lastLSN = mc.lastLSN
		ci.lastEpoch = mc.lastEpoch
		ci.intervals = append([]record.Interval(nil), mc.intervals...)
		rs.clients[mc.id] = ci
	}
	for _, ms := range m.staged {
		rec := record.Record{LSN: ms.lsn, Epoch: ms.epoch, Present: ms.present}
		// Data stays behind: the record's bytes are in the archive, and
		// the index redirects reads of below-boundary offsets there.
		_ = rs.stage.add(ms.client, rec, ms.loc)
	}
	return rs
}

const manifestMagic = uint32(0xD15C5E63) // "disc-seg"

// encodeManifestLocked serializes baseMeta and the boundary to a
// temporary file and renames it over the manifest. Caller holds s.mu.
func (s *SegStore) encodeManifestLocked() []byte {
	buf := binary.BigEndian.AppendUint32(nil, manifestMagic)
	buf = append(buf, 1) // version
	buf = binary.BigEndian.AppendUint64(buf, uint64(s.boundary))

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.baseMeta.clients)))
	for _, c := range sortedClients(s.baseMeta.clients) {
		ci := s.baseMeta.clients[c]
		buf = binary.BigEndian.AppendUint64(buf, uint64(c))
		buf = binary.BigEndian.AppendUint64(buf, uint64(ci.truncated))
		buf = binary.BigEndian.AppendUint64(buf, uint64(ci.lastLSN))
		buf = binary.BigEndian.AppendUint64(buf, uint64(ci.lastEpoch))
		buf = record.EncodeIntervals(buf, ci.intervals)
	}

	var staged []manifestStaged
	for k, m := range s.baseMeta.stage.records {
		for lsn, sr := range m {
			staged = append(staged, manifestStaged{
				client: k.client, epoch: k.epoch, lsn: lsn,
				present: sr.rec.Present, loc: sr.loc,
			})
		}
	}
	sort.Slice(staged, func(i, j int) bool {
		if staged[i].client != staged[j].client {
			return staged[i].client < staged[j].client
		}
		if staged[i].epoch != staged[j].epoch {
			return staged[i].epoch < staged[j].epoch
		}
		return staged[i].lsn < staged[j].lsn
	})
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(staged)))
	for _, ms := range staged {
		buf = binary.BigEndian.AppendUint64(buf, uint64(ms.client))
		buf = binary.BigEndian.AppendUint64(buf, uint64(ms.epoch))
		buf = binary.BigEndian.AppendUint64(buf, uint64(ms.lsn))
		if ms.present {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.BigEndian.AppendUint64(buf, uint64(ms.loc))
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// writeManifestFile durably replaces the manifest (tmp + fsync +
// rename + directory sync).
func (s *SegStore) writeManifestFile(buf []byte) error {
	path := filepath.Join(s.dir, segManifestName)
	tmp := path + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(s.dir)
	return nil
}

// loadManifest reads the manifest at path; a missing file yields the
// empty state (a brand-new store).
func loadManifest(path string) (*manifestState, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &manifestState{}, nil
	}
	if err != nil {
		return nil, err
	}
	if len(buf) < 4+1+8+4+4+4 {
		return nil, fmt.Errorf("storage: manifest %s too short", path)
	}
	body, sum := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("storage: manifest %s checksum mismatch", path)
	}
	if binary.BigEndian.Uint32(body) != manifestMagic {
		return nil, fmt.Errorf("storage: manifest %s bad magic", path)
	}
	if body[4] != 1 {
		return nil, fmt.Errorf("storage: manifest %s unknown version %d", path, body[4])
	}
	m := &manifestState{boundary: int64(binary.BigEndian.Uint64(body[5:]))}
	off := 13
	short := fmt.Errorf("storage: manifest %s truncated", path)

	if len(body)-off < 4 {
		return nil, short
	}
	nc := int(binary.BigEndian.Uint32(body[off:]))
	off += 4
	for i := 0; i < nc; i++ {
		if len(body)-off < 32 {
			return nil, short
		}
		mc := manifestClient{
			id:        record.ClientID(binary.BigEndian.Uint64(body[off:])),
			truncated: record.LSN(binary.BigEndian.Uint64(body[off+8:])),
			lastLSN:   record.LSN(binary.BigEndian.Uint64(body[off+16:])),
			lastEpoch: record.Epoch(binary.BigEndian.Uint64(body[off+24:])),
		}
		off += 32
		ivs, used, err := record.DecodeIntervals(body[off:])
		if err != nil {
			return nil, fmt.Errorf("storage: manifest %s: %v", path, err)
		}
		off += used
		mc.intervals = ivs
		m.clients = append(m.clients, mc)
	}

	if len(body)-off < 4 {
		return nil, short
	}
	ns := int(binary.BigEndian.Uint32(body[off:]))
	off += 4
	for i := 0; i < ns; i++ {
		if len(body)-off < 33 {
			return nil, short
		}
		m.staged = append(m.staged, manifestStaged{
			client:  record.ClientID(binary.BigEndian.Uint64(body[off:])),
			epoch:   record.Epoch(binary.BigEndian.Uint64(body[off+8:])),
			lsn:     record.LSN(binary.BigEndian.Uint64(body[off+16:])),
			present: body[off+24] == 1,
			loc:     int64(binary.BigEndian.Uint64(body[off+25:])),
		})
		off += 33
	}
	return m, nil
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry is durable. Errors are ignored: some platforms and
// filesystems refuse directory fsync, and the stream's own recovery
// tolerates a lost tail.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
