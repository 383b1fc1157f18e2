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
	"sync/atomic"

	"distlog/internal/faultpoint"
	"distlog/internal/fsutil"
	"distlog/internal/record"
)

// SegStore is the log server's long-running durable backend (Section
// 5.3, log space management): the engine's stream is cut into
// fixed-capacity segment files, so space can be returned to the
// filesystem a whole segment at a time. When an append would overflow
// the active segment, the segment is synced, sealed, and a new one
// opened; sealed segments are immutable.
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
	engine
	segs *segments

	// compactMu serializes CompactOnce passes. It is never taken by the
	// foreground paths, so compaction's fsyncs (archive, manifest)
	// cannot stall an append or force.
	compactMu sync.Mutex
	// floorMu guards floors: the truncation points reported since the
	// archive was last called. Truncate only records them here; the next
	// archive call hands them over first (passFloors).
	floorMu sync.Mutex
	floors  map[record.ClientID]record.LSN

	opts SegOptions

	// baseMeta is the index at the boundary: what the manifest
	// serializes, and what folded segments are applied to. It advances
	// only during compaction; the live index is always ahead of (or
	// equal to) it.
	baseMeta *logIndex
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

// segments is SegStore's medium: the stream as a run of segment files,
// each starting where the one before it ends. The list changes under
// the engine mutex; sync reaches the active file through an atomic so
// it can run without that mutex.
type segments struct {
	dir      string
	capacity int64
	list     []*segment // base-ascending; the last is the active tail
	tail     atomic.Pointer[os.File]
}

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

	segs := &segments{dir: dir, capacity: opts.SegmentBytes}
	live := man.seed()
	next := man.boundary
	for i, base := range bases {
		if base != next {
			segs.close()
			return nil, fmt.Errorf("storage: segment gap in %s: want base %d, have %d", dir, next, base)
		}
		g, err := segs.open(base)
		if err == nil {
			err = g.replay(live, i == len(bases)-1)
		}
		if err != nil {
			segs.close()
			return nil, err
		}
		next = g.end()
	}
	if len(segs.list) == 0 {
		if _, err := segs.create(man.boundary); err != nil {
			return nil, err
		}
	}
	s := &SegStore{
		engine:   engine{m: segs, ix: live, boundary: man.boundary, end: next},
		segs:     segs,
		opts:     opts,
		baseMeta: man.seed(),
	}
	if opts.Archive != nil {
		s.cold = s.readArchive
	}
	// Re-assert the replayed truncation floors on the cold tier, so an
	// archive that lost its in-memory floors to the crash clamps reads
	// again before anything is looked up.
	for c, ci := range live.clients {
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

// readArchive is the engine's cold tier: the archive, once it has the
// floors noted since its last call.
func (s *SegStore) readArchive(c record.ClientID, from, to record.LSN, maxBytes int) ([]record.Record, error) {
	if err := s.passFloors(); err != nil {
		return nil, err
	}
	return s.opts.Archive.ReadRange(c, from, to, maxBytes)
}

// open adds the existing segment file at base to the list as its tail.
func (m *segments) open(base int64) (*segment, error) {
	path := filepath.Join(m.dir, segFileName(base))
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if n := len(m.list); n > 0 {
		m.list[n-1].sealed = true
	}
	g := &segment{base: base, size: info.Size(), f: f, path: path}
	m.list = append(m.list, g)
	m.tail.Store(f)
	return g, nil
}

// create starts a fresh segment at base as the list's tail.
func (m *segments) create(base int64) (*segment, error) {
	path := filepath.Join(m.dir, segFileName(base))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	// An entry that may not survive a crash must not take records: they
	// would be acknowledged stable and then vanish with the file.
	if err := fsutil.SyncDir(m.dir, FPSyncDir); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	g := &segment{base: base, f: f, path: path}
	m.list = append(m.list, g)
	m.tail.Store(f)
	return g, nil
}

// replay applies the segment's frames to the index. Only the final
// (active) segment may carry a torn tail frame — it is truncated away,
// which is safe because a frame is made stable, and so acknowledged,
// only by a completed Force. A torn frame in a sealed segment is
// corruption: seals sync before the next segment accepts a byte, so a
// crash can never tear anything but the tail.
func (g *segment) replay(ix *logIndex, last bool) error {
	data := make([]byte, g.size)
	if _, err := g.f.ReadAt(data, 0); err != nil {
		return err
	}
	end, err := eachFrame(data, g.base, ix.apply)
	if err != nil && !(last && errors.Is(err, ErrBadFrame)) {
		return fmt.Errorf("storage: segment replay %s %w", g.path, err)
	}
	if end < g.end() {
		if err := g.f.Truncate(end - g.base); err != nil {
			return err
		}
		g.size = end - g.base
	}
	return nil
}

func (m *segments) active() *segment { return m.list[len(m.list)-1] }

// append writes the frame to the active segment, first sealing it and
// opening a fresh one when the frame would overflow it.
func (m *segments) append(frame []byte) (int64, error) {
	a := m.active()
	if a.size > 0 && a.size+int64(len(frame)) > m.capacity {
		if err := a.f.Sync(); err != nil {
			return 0, err
		}
		a.sealed = true
		faultpoint.Hit(FPSegmentSeal)
		var err error
		if a, err = m.create(a.end()); err != nil {
			return 0, err
		}
	}
	loc := a.end()
	if _, err := a.f.WriteAt(frame, a.size); err != nil {
		return 0, err
	}
	a.size += int64(len(frame))
	return loc, nil
}

// sync fsyncs the active segment; sealed segments were synced when they
// sealed.
func (m *segments) sync() error { return m.tail.Load().Sync() }

// readAt reads across as many segments as p spans.
func (m *segments) readAt(p []byte, off int64) error {
	i := sort.Search(len(m.list), func(i int) bool { return m.list[i].end() > off })
	for n := 0; n < len(p); i++ {
		if i == len(m.list) || m.list[i].base > off {
			return fmt.Errorf("storage: offset %d not in any live segment", off)
		}
		g := m.list[i]
		k := int(min(int64(len(p)-n), g.end()-off))
		if _, err := g.f.ReadAt(p[n:n+k], off-g.base); err != nil {
			return err
		}
		n += k
		off += int64(k)
	}
	return nil
}

// close syncs the active segment and closes every file.
func (m *segments) close() error {
	var errs []error
	if len(m.list) > 0 {
		errs = append(errs, m.active().f.Sync())
	}
	for _, g := range m.list {
		errs = append(errs, g.f.Close())
	}
	return errors.Join(errs...)
}

// Truncate implements Store. The truncation point is appended to the
// stream; CompactOnce reclaims whole segments it kills. The cold tier
// clamps its reads at the same floor and uses it to retire dead
// volumes, but learns it only at the next archive call: this path
// never waits on archive I/O.
func (s *SegStore) Truncate(c record.ClientID, before record.LSN) error {
	floor, err := s.truncate(c, before)
	if err == nil {
		s.noteFloor(c, floor)
	}
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
// at the next InstallCopies, or dies when the client's epoch advances
// past it, and compaction retries then.
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
	if len(s.segs.list) < 2 {
		s.mu.Unlock()
		return false, nil
	}
	victim := s.segs.list[0]
	// Pending staged copies referencing the victim pin it: their
	// install must index data the segment still holds.
	for _, m := range s.ix.stage.records {
		for _, sr := range m {
			if sr.loc >= victim.base && sr.loc < victim.end() {
				s.mu.Unlock()
				return false, nil
			}
		}
	}
	s.mu.Unlock()

	// The victim is sealed and immutable: read and decode it without
	// the lock.
	data := make([]byte, victim.size)
	if _, err := victim.f.ReadAt(data, 0); err != nil {
		return false, err
	}
	type segEntry struct {
		e   streamEntry
		loc int64
	}
	var entries []segEntry
	if _, err := eachFrame(data, victim.base, func(e streamEntry, loc int64) error {
		entries = append(entries, segEntry{e: e, loc: loc})
		return nil
	}); err != nil {
		return false, fmt.Errorf("storage: sealed segment %s %w", victim.path, err)
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
		ci := s.ix.clients[se.e.client]
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

	// Fold the segment into the base state. Only compaction touches
	// baseMeta (under compactMu), so the fold — an index update per
	// entry, thousands for a full segment — runs without s.mu and never
	// stalls a foreground append or force.
	faultpoint.Hit(FPSegmentFold)
	for _, se := range entries {
		if err := s.baseMeta.apply(se.e, se.loc); err != nil {
			return false, fmt.Errorf("storage: folding segment %s: %w", victim.path, err)
		}
	}
	// Advance the boundary: from here on, reads of the victim's offsets
	// go to the archive. If the manifest write below fails, the
	// in-memory state is merely ahead of the durable manifest — the same
	// as a crash before the advance, which the next open replays
	// correctly — and the victim file stays for that replay.
	s.mu.Lock()
	s.boundary = victim.end()
	s.segs.list = s.segs.list[1:]
	s.mu.Unlock()
	// Encoding and the manifest fsync happen outside s.mu too: compactMu
	// orders the only writers of baseMeta and the boundary.
	err := s.writeManifestFile(s.encodeManifest())
	victim.f.Close()
	if err != nil {
		return false, err
	}

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
	for _, g := range s.segs.list {
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
func (m *manifestState) seed() *logIndex {
	rs := newLogIndex()
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
		rs.stage.add(ms.client, rec, ms.loc)
	}
	return rs
}

const manifestMagic = uint32(0xD15C5E63) // "disc-seg"

// encodeManifest serializes baseMeta and the boundary. Caller holds
// compactMu, which orders every writer of both.
func (s *SegStore) encodeManifest() []byte {
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
	path := filepath.Join(s.segs.dir, segManifestName)
	tmp := path + ".tmp"
	if err := fsutil.WriteFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return fsutil.SyncDir(s.segs.dir, FPSyncDir)
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
