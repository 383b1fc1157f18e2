package storage

import (
	"encoding/binary"
	"fmt"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
)

// The Store methods of SegStore: the write path, the read path with its
// hot/cold routing, and CopyLog staging, over the segments of any
// volume.

// appendLocked writes one framed entry. Caller holds s.mu.
func (s *SegStore) appendLocked(entry []byte) (int64, error) {
	loc, err := s.segs.append(entry)
	if err != nil {
		return 0, err
	}
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
	ci := s.ix.client(c)
	if err := record.ValidateAppend(ci.lastLSN, ci.lastEpoch, rec); err != nil {
		return err
	}
	s.scratch = encodeRecordEntry(s.scratch[:0], kindRecord, c, rec)
	loc, err := s.appendLocked(s.scratch)
	if err != nil {
		return err
	}
	s.ix.index(c, ci, rec, loc)
	return nil
}

// Force implements Store. The mutex is released for the device sync,
// so appenders can reach a server-side force group while a round waits
// on the device. Appends racing the sync may or may not be covered; the
// generation check leaves the store dirty for them, so their own Force
// still syncs.
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
	s.mu.Unlock()
	err := s.segs.sync()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.closed {
			return ErrClosed
		}
		return err
	}
	if s.appendGen == gen {
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

// ReadRange implements Store. The index routes every LSN: records on
// the volume are decoded out of one read per contiguous extent of the
// stream rather than two per record (a client's consecutive LSNs sit at
// ascending offsets, adjacent unless another client's appends
// interleave), and each stretch of LSNs the index places below the
// boundary is handed to the cold tier as one range, with s.mu released
// for its I/O.
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
	nowhere     = iota
	onVolume    // at an offset the volume holds
	inCold      // at an offset below the boundary: the cold tier holds it
	maybeInCold // not indexed (a reopened index covers only the volume) but not truncated either: the cold tier holds it or nothing does
)

func (s *SegStore) locate(ci *clientIndex, lsn record.LSN) (int, entryRef) {
	ref, ok := ci.lookup(lsn)
	switch {
	case ok && ref.loc >= s.boundary:
		return onVolume, ref
	case ok:
		return inCold, ref
	case s.archive != nil && lsn >= ci.truncated && lsn <= ci.lastLSN:
		return maybeInCold, ref
	}
	return nowhere, ref
}

// coldRun is a stretch of consecutive LSNs the index routes to the cold
// tier.
type coldRun struct {
	from, to record.LSN
	indexed  bool // from is inCold: the cold tier must hold it
}

// maxColdRun bounds how many LSNs one cold run covers.
const maxColdRun = 1024

// readHotLocked serves the range from lsn on out of the volume until it
// is done or reaches an LSN the cold tier must serve, and returns the
// cold run starting there. Caller holds s.mu.
func (s *SegStore) readHotLocked(c record.ClientID, g *rangeGather, ext *extent, lsn record.LSN) (coldRun, bool, error) {
	if s.closed {
		return coldRun{}, true, ErrClosed
	}
	ci := s.ix.clients[c]
	if ci == nil {
		return coldRun{}, true, ErrNotStored
	}
	for ; ; lsn = g.next(lsn) {
		where, ref := s.locate(ci, lsn)
		switch where {
		case nowhere:
			return coldRun{}, true, ErrNotStored
		case onVolume:
			ent, err := s.fetchEntry(ref.loc, ext)
			if err != nil {
				return coldRun{}, true, err
			}
			if g.add(ent.rec) {
				return coldRun{}, true, nil
			}
			continue
		}
		run := coldRun{from: lsn, to: lsn, indexed: where == inCold}
		for n := 1; run.to != g.to && n < maxColdRun; n++ {
			if w, _ := s.locate(ci, g.next(run.to)); w != inCold && w != maybeInCold {
				break
			}
			run.to = g.next(run.to)
		}
		return run, false, nil
	}
}

// readCold serves a cold run and reports whether the range is done.
// Called without s.mu.
func (s *SegStore) readCold(c record.ClientID, g *rangeGather, run coldRun) (bool, error) {
	if s.archive == nil {
		return true, fmt.Errorf("storage: LSN %d archived but no archive tier configured", run.from)
	}
	recs, err := s.readArchive(c, run.from, run.to, g.maxBytes-g.size)
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
	// A run the cold tier served only in part ends the range: the next
	// LSN is one it does not hold.
	return recs[len(recs)-1].LSN != run.to, nil
}

// extent is a window of stream bytes held across the reads of a
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

// fetchEntry decodes the frame at the absolute offset out of the
// extent. A miss reads a window of the stream positioned to cover the
// frames the scan reaches next — forward in a single read, backward
// after the header read that tells where the frame (and so the window)
// ends. Caller holds s.mu.
func (s *SegStore) fetchEntry(loc int64, ext *extent) (streamEntry, error) {
	if frame, ok := ext.frameAt(loc); ok {
		ent, _, err := decodeFrame(frame)
		return ent, err
	}
	end := s.segs.active().end()
	if loc < s.boundary || loc+frameOverhead > end {
		return streamEntry{}, fmt.Errorf("storage: offset %d outside the stream [%d,%d)", loc, s.boundary, end)
	}
	if !ext.backward {
		ext.base, ext.buf = loc, make([]byte, min(end-loc, int64(ext.span)))
		if err := s.segs.readAt(ext.buf, loc); err != nil {
			return streamEntry{}, err
		}
		if frame, ok := ext.frameAt(loc); ok {
			ent, _, err := decodeFrame(frame)
			return ent, err
		}
		// A frame longer than the window: read it exactly, below.
	}
	var header [frameOverhead]byte
	if err := s.segs.readAt(header[:], loc); err != nil {
		return streamEntry{}, err
	}
	frameEnd := loc + frameOverhead + int64(binary.BigEndian.Uint32(header[1:5]))
	if frameEnd > end {
		return streamEntry{}, fmt.Errorf("storage: frame at %d runs past the stream end %d", loc, end)
	}
	lo := loc
	if ext.backward {
		lo = max(s.boundary, min(loc, frameEnd-int64(ext.span)))
	}
	buf := make([]byte, frameEnd-lo)
	if err := s.segs.readAt(buf, lo); err != nil {
		return streamEntry{}, err
	}
	if ext.backward {
		ext.base, ext.buf = lo, buf
	}
	ent, _, err := decodeFrame(buf[loc-lo:])
	return ent, err
}

// Intervals implements Store.
func (s *SegStore) Intervals(c record.ClientID) []record.Interval {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.intervals(c)
}

// LastKey implements Store.
func (s *SegStore) LastKey(c record.ClientID) (record.LSN, record.Epoch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ix.lastKey(c)
}

// Clients implements Store.
func (s *SegStore) Clients() []record.ClientID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedClients(s.ix.clients)
}

// StageCopy implements Store. The staged record is written to the
// stream at once, but becomes part of the client's log only when the
// InstallCopies commit marker follows it. A copy no install could apply
// is refused before anything is written.
func (s *SegStore) StageCopy(c record.ClientID, rec record.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.ix.checkStage(c, rec); err != nil {
		return err
	}
	s.scratch = encodeRecordEntry(s.scratch[:0], kindStagedCopy, c, rec)
	loc, err := s.appendLocked(s.scratch)
	if err != nil {
		return err
	}
	s.ix.stage.add(c, rec, loc)
	return nil
}

// InstallCopies implements Store. Writing the single commit marker is
// what makes the installation atomic: replay installs the staged
// records if and only if the marker is in the stream. The marker is
// made stable before the install is acknowledged, and nothing is
// written for an install that cannot apply.
func (s *SegStore) InstallCopies(c record.ClientID, epoch record.Epoch, want ...Span) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	sp, err := installSpan(want)
	if err != nil {
		return err
	}
	staged, err := s.ix.takeStage(c, epoch, sp)
	if err != nil || staged == nil {
		return err
	}
	s.scratch = encodeArgEntry(s.scratch[:0], kindInstall, c, uint64(epoch))
	if _, err := s.appendLocked(s.scratch); err != nil {
		return err
	}
	if err := s.segs.sync(); err != nil {
		return err
	}
	s.dirty = false
	for _, sr := range staged {
		if err := faultpoint.HitErr(FPInstallPartial); err != nil {
			return err
		}
		s.ix.install(c, sr.rec, sr.loc)
	}
	return nil
}

// Truncate implements Store. The truncation point is written to the
// stream, so it survives a crash, and CompactOnce reclaims whole
// segments it kills. The cold tier clamps its reads at the same floor
// and uses it to retire dead volumes, but learns it only at the next
// archive call: this path never waits on archive I/O.
func (s *SegStore) Truncate(c record.ClientID, before record.LSN) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	ci := s.ix.clients[c]
	if ci == nil {
		return ErrNotStored
	}
	s.scratch = encodeArgEntry(s.scratch[:0], kindTruncate, c, uint64(before))
	if _, err := s.appendLocked(s.scratch); err != nil {
		return err
	}
	ci.truncate(before)
	s.noteFloor(c, ci.truncated)
	return nil
}

// Close implements Store, closing every segment.
func (s *SegStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.segs.close()
}
