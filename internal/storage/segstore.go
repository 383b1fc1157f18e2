package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
)

// SegStore is the log server's store (Section 4.3): one interleaved,
// append-only stream of framed entries, indexed per client by the
// volatile logIndex, cut into fixed-capacity segments on a volume so
// that space is returned a whole segment at a time (Section 5.3). When
// an append would overflow the active segment, the segment is synced,
// sealed, and a new one opened; sealed segments are immutable.
//
// Reclamation works on the oldest sealed segment: records still live
// (at or above their client's truncation point) are migrated into the
// write-once ArchiveTier, the segment's effects are folded into a
// durable manifest that seeds replay (so recovery never needs the
// deleted bytes), and the segment is removed. The manifest plus the
// surviving segments always replay to exactly the state the full
// stream would have produced. Reads transparently span the tiers: the
// volatile index resolves an LSN to a byte offset, and offsets below
// the fold boundary are served from the archive.
//
// s.mu guards everything below it and is never held across a device
// sync (Force) or a call into the archive: archive I/O (syncs,
// retirement rewrites) must not queue appends and forces.
type SegStore struct {
	mu   sync.Mutex
	segs *segments
	ix   *logIndex

	// boundary is the stream offset below which the volume holds
	// nothing; the index routes records it places there to the archive.
	boundary int64

	dirty     bool
	appendGen uint64 // bumped per append; Force clears dirty only if unchanged
	closed    bool

	scratch []byte // reusable encode buffer

	// compactMu serializes CompactOnce passes. It is never taken by the
	// foreground paths, so compaction's fsyncs (archive, manifest)
	// cannot stall an append or force.
	compactMu sync.Mutex
	// floorMu guards floors: the truncation points reported since the
	// archive was last called. Truncate only records them here; the next
	// archive call hands them over first (passFloors).
	floorMu sync.Mutex
	floors  map[record.ClientID]record.LSN

	archive ArchiveTier

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

// segment is one piece of the stream on the volume. Locations handed
// to the index are absolute stream offsets: base + offset-in-segment,
// so the index never changes when segments are reclaimed.
type segment struct {
	base int64
	size int64
	f    segFile
}

func (g *segment) end() int64 { return g.base + g.size }

// segments is the stream as a run of segments on a volume, each
// starting where the one before it ends. The list changes under s.mu;
// sync reaches the active segment through an atomic, without s.mu.
type segments struct {
	vol      volume
	capacity int64
	list     []*segment // base-ascending; the last is the active tail
	tail     atomic.Pointer[segment]
}

// OpenSegStore opens (creating if needed) a store whose segments are
// files in dir.
func OpenSegStore(dir string, opts SegOptions) (*SegStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return openSegStore(dirVolume{dir}, opts)
}

// openSegStore opens the store on a volume: the manifest is loaded,
// stray segments below its boundary (left by a crash between a manifest
// advance and the segment's removal) are removed, and the surviving
// segments are replayed over the manifest state.
func openSegStore(vol volume, opts SegOptions) (*SegStore, error) {
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = 64 << 20
	}
	buf, err := vol.loadManifest()
	if err != nil {
		return nil, err
	}
	boundary, live, err := decodeManifest(buf)
	if err != nil {
		return nil, err
	}
	// The fold base starts from an independent copy of the same state.
	_, baseMeta, _ := decodeManifest(buf)
	bases, err := vol.list()
	if err != nil {
		return nil, err
	}
	segs := &segments{vol: vol, capacity: opts.SegmentBytes}
	next := boundary
	for _, base := range bases {
		if base < boundary {
			// Folded into the manifest before the crash; its bytes must
			// not replay again.
			if err := vol.remove(base); err != nil {
				return nil, err
			}
			continue
		}
		if base != next {
			segs.close()
			return nil, fmt.Errorf("storage: segment gap: want base %d, have %d", next, base)
		}
		g, err := segs.open(base)
		if err == nil {
			err = g.replay(live, base == bases[len(bases)-1])
		}
		if err != nil {
			segs.close()
			return nil, err
		}
		next = g.end()
	}
	if len(segs.list) == 0 {
		if _, err := segs.create(boundary); err != nil {
			return nil, err
		}
	}
	s := &SegStore{
		segs:     segs,
		ix:       live,
		boundary: boundary,
		archive:  opts.Archive,
		baseMeta: baseMeta,
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
// archive call hands it over. Callers may hold s.mu.
func (s *SegStore) noteFloor(c record.ClientID, floor record.LSN) {
	if s.archive == nil || floor == 0 {
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
		if err := s.archive.Truncate(c, floor); err != nil {
			for c, floor := range floors {
				s.noteFloor(c, floor)
			}
			return err
		}
	}
	return nil
}

// readArchive reads the cold tier, once it has the floors noted since
// its last call.
func (s *SegStore) readArchive(c record.ClientID, from, to record.LSN, maxBytes int) ([]record.Record, error) {
	if err := s.passFloors(); err != nil {
		return nil, err
	}
	return s.archive.ReadRange(c, from, to, maxBytes)
}

// open adds the existing segment at base to the list as its tail.
func (m *segments) open(base int64) (*segment, error) {
	f, size, err := m.vol.open(base)
	return m.push(&segment{base: base, size: size, f: f}, err)
}

// create starts a fresh segment at base as the list's tail.
func (m *segments) create(base int64) (*segment, error) {
	f, err := m.vol.create(base)
	return m.push(&segment{base: base, f: f}, err)
}

func (m *segments) push(g *segment, err error) (*segment, error) {
	if err != nil {
		return nil, err
	}
	m.list = append(m.list, g)
	m.tail.Store(g)
	return g, nil
}

// replay applies the segment's frames to the index. Only the final
// (active) segment may carry a torn tail frame — it is cut off, which
// is safe because a frame is made stable, and so acknowledged, only by
// a completed Force. A torn frame in a sealed segment is corruption:
// seals sync before the next segment accepts a byte, so a crash can
// never tear anything but the tail. A volume on which nothing can be
// torn refuses the cut, and the open fails.
func (g *segment) replay(ix *logIndex, last bool) error {
	data := make([]byte, g.size)
	if _, err := g.f.ReadAt(data, 0); err != nil {
		return err
	}
	end, err := eachFrame(data, g.base, ix.apply)
	if err != nil && !(last && errors.Is(err, ErrBadFrame)) {
		return fmt.Errorf("storage: replay of the segment at %d %w", g.base, err)
	}
	if end < g.end() {
		if terr := g.f.Truncate(end - g.base); terr != nil {
			return fmt.Errorf("storage: replay of the segment at %d %w", g.base, errors.Join(err, terr))
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

// sync makes the active segment stable; sealed segments were synced
// when they sealed.
func (m *segments) sync() error { return m.tail.Load().f.Sync() }

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

// close syncs the active segment and closes every segment.
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
	if s.archive != nil {
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
		return false, fmt.Errorf("storage: sealed segment at %d %w", victim.base, err)
	}

	// Select the records the index still serves from this segment.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, ErrClosed
	}
	var live []streamEntry
	for _, se := range entries {
		if se.e.kind != kindRecord && se.e.kind != kindStagedCopy {
			continue
		}
		ci := s.ix.clients[se.e.client]
		if ci == nil {
			continue
		}
		if ref, ok := ci.lookup(se.e.rec.LSN); ok && ref.loc == se.loc {
			live = append(live, se.e)
		}
	}
	s.mu.Unlock()

	if len(live) > 0 {
		if s.archive == nil {
			// Nowhere to migrate live records: the segment must be kept.
			return false, nil
		}
		for _, e := range live {
			if err := s.archive.Archive(e.client, e.rec); err != nil {
				return false, err
			}
		}
		if err := s.archive.Sync(); err != nil {
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
			return false, fmt.Errorf("storage: folding the segment at %d: %w", victim.base, err)
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
	err := s.segs.vol.storeManifest(encodeManifest(victim.end(), s.baseMeta))
	victim.f.Close()
	if err != nil {
		return false, err
	}

	if err := faultpoint.HitErr(FPSegmentDelete); err != nil {
		return false, err
	}
	if err := s.segs.vol.remove(victim.base); err != nil {
		return false, err
	}
	return true, nil
}

// Usage implements UsageReporter. ReclaimableBytes counts sealed
// segments, every one but the active — the space compaction can return
// to the online tier.
func (s *SegStore) Usage() Usage {
	var u Usage
	s.mu.Lock()
	for _, g := range s.segs.list {
		u.LiveBytes += g.size
	}
	u.Segments, u.SealedSegments = len(s.segs.list), len(s.segs.list)-1
	u.ReclaimableBytes = u.LiveBytes - s.segs.active().size
	s.mu.Unlock()
	if s.archive != nil {
		// Usage has no error to report; a failed hand-over is retried
		// by the next archive call.
		_ = s.passFloors()
		u.ArchivedBytes = s.archive.Bytes()
		if r, ok := s.archive.(interface{ ReclaimableBytes() int64 }); ok {
			u.ArchiveReclaimableBytes = r.ReclaimableBytes()
		}
	}
	return u
}

// --- manifest ---------------------------------------------------------

// The manifest is the durable replay base: the fold boundary, each
// client's index scalars and interval list at it, and the metadata of
// copies staged below it but not yet installed there (their data, being
// live, was archived; an install marker replayed from a surviving
// segment indexes them by their old offsets, which the read path
// redirects to the archive).

const manifestMagic = uint32(0xD15C5E63) // "disc-seg"

// encodeManifest serializes the index at the boundary.
func encodeManifest(boundary int64, base *logIndex) []byte {
	buf := binary.BigEndian.AppendUint32(nil, manifestMagic)
	buf = append(buf, 1) // version
	buf = binary.BigEndian.AppendUint64(buf, uint64(boundary))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(base.clients)))
	for _, c := range sortedClients(base.clients) {
		ci := base.clients[c]
		for _, v := range []uint64{uint64(c), uint64(ci.truncated), uint64(ci.lastLSN), uint64(ci.lastEpoch)} {
			buf = binary.BigEndian.AppendUint64(buf, v)
		}
		buf = record.EncodeIntervals(buf, ci.intervals)
	}
	// Staged copies as (client, epoch, LSN, present, offset), sorted.
	var staged [][5]uint64
	for k, m := range base.stage.records {
		for lsn, sr := range m {
			present := uint64(0)
			if sr.rec.Present {
				present = 1
			}
			staged = append(staged, [5]uint64{uint64(k.client), uint64(k.epoch), uint64(lsn), present, uint64(sr.loc)})
		}
	}
	sort.Slice(staged, func(i, j int) bool { return slices.Compare(staged[i][:3], staged[j][:3]) < 0 })
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(staged)))
	for _, st := range staged {
		buf = binary.BigEndian.AppendUint64(buf, st[0])
		buf = binary.BigEndian.AppendUint64(buf, st[1])
		buf = binary.BigEndian.AppendUint64(buf, st[2])
		buf = append(buf, byte(st[3]))
		buf = binary.BigEndian.AppendUint64(buf, st[4])
	}
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeManifest decodes a stored manifest into its boundary and the
// index at it; nil is the empty state of a brand-new store. Each call
// returns an independent index.
func decodeManifest(buf []byte) (int64, *logIndex, error) {
	ix := newLogIndex()
	if buf == nil {
		return 0, ix, nil
	}
	if len(buf) < 4+1+8+4+4+4 {
		return 0, nil, errors.New("storage: manifest too short")
	}
	body, sum := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, errors.New("storage: manifest checksum mismatch")
	}
	if binary.BigEndian.Uint32(body) != manifestMagic {
		return 0, nil, errors.New("storage: manifest bad magic")
	}
	if body[4] != 1 {
		return 0, nil, fmt.Errorf("storage: manifest unknown version %d", body[4])
	}
	d := decoder{b: body[5:]}
	boundary := int64(d.u64())
	for n := d.u32(); n > 0 && d.err == nil; n-- {
		c, ci := record.ClientID(d.u64()), newClientIndex()
		ci.truncated, ci.lastLSN, ci.lastEpoch = record.LSN(d.u64()), record.LSN(d.u64()), record.Epoch(d.u64())
		ci.intervals = d.intervals()
		ix.clients[c] = ci
	}
	for n := d.u32(); n > 0 && d.err == nil; n-- {
		c, epoch, lsn := record.ClientID(d.u64()), record.Epoch(d.u64()), record.LSN(d.u64())
		present, loc := d.take(1)[0] == 1, int64(d.u64())
		// Data stays behind: the record's bytes are in the archive, and
		// the index redirects reads of below-boundary offsets there.
		ix.stage.add(c, record.Record{LSN: lsn, Epoch: epoch, Present: present}, loc)
	}
	if d.err == nil && len(d.b) > 0 {
		d.err = errors.New("storage: manifest has trailing bytes")
	}
	if d.err != nil {
		return 0, nil, fmt.Errorf("storage: manifest: %w", d.err)
	}
	return boundary, ix, nil
}

// decoder reads big-endian fields off the front of b. The first read
// past the end sets err; it and every later read yield zeros.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err == nil && len(d.b) < n {
		d.err = record.ErrTruncated
	}
	if d.err != nil {
		return make([]byte, n)
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) u64() uint64 { return binary.BigEndian.Uint64(d.take(8)) }
func (d *decoder) u32() uint32 { return binary.BigEndian.Uint32(d.take(4)) }

func (d *decoder) intervals() []record.Interval {
	ivs, used, err := record.DecodeIntervals(d.b)
	d.err = errors.Join(d.err, err)
	d.take(used)
	return ivs
}
