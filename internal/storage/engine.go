package storage

import (
	"encoding/binary"
	"fmt"
	"sync"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
)

// medium is where an engine's stream lives: SegStore's segment files or
// DiskStore's NVRAM-fronted track disk. Offsets are absolute stream
// offsets, contiguous from the engine's boundary to its end. The engine
// calls append and readAt with its mutex held, sync without it.
type medium interface {
	// append writes one frame at the end of the stream and returns its
	// offset.
	append(frame []byte) (int64, error)
	// sync makes every frame appended before the call stable.
	sync() error
	// readAt fills p with the stream bytes at offset off.
	readAt(p []byte, off int64) error
	close() error
}

// engine is the indexed log of Section 4.3 that the durable stores
// share: one interleaved stream of framed entries on a medium, indexed
// per client by the volatile logIndex. It implements every Store method;
// DiskStore and SegStore embed it and add what their medium needs.
//
// e.mu guards everything below it and is never held across a device
// sync (Force) or a call into the cold tier (ReadRange).
type engine struct {
	mu sync.Mutex
	m  medium
	ix *logIndex

	// boundary is the stream offset below which the medium holds
	// nothing; the index routes records it places there to cold.
	boundary int64
	// end is the stream offset of the next appended byte.
	end int64
	// cold serves the records below the boundary; nil when there is no
	// cold tier.
	cold func(c record.ClientID, from, to record.LSN, maxBytes int) ([]record.Record, error)
	// stable is set for a medium whose appends are stable once written
	// (NVRAM staging): nothing is ever dirty, so Force never syncs.
	stable bool

	dirty     bool
	appendGen uint64 // bumped per append; Force clears dirty only if unchanged
	closed    bool

	scratch []byte // reusable encode buffer
}

// appendLocked writes one framed entry. Caller holds e.mu.
func (e *engine) appendLocked(entry []byte) (int64, error) {
	loc, err := e.m.append(entry)
	if err != nil {
		return 0, err
	}
	e.end = loc + int64(len(entry))
	e.dirty = !e.stable
	e.appendGen++
	return loc, nil
}

// Append implements Store.
func (e *engine) Append(c record.ClientID, rec record.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	ci := e.ix.client(c)
	if err := record.ValidateAppend(ci.lastLSN, ci.lastEpoch, rec); err != nil {
		return err
	}
	e.scratch = encodeRecordEntry(e.scratch[:0], kindRecord, c, rec)
	loc, err := e.appendLocked(e.scratch)
	if err != nil {
		return err
	}
	e.ix.index(c, ci, rec, loc)
	return nil
}

// Force implements Store. The mutex is released for the device sync,
// so appenders can reach a server-side force group while a round waits
// on the device. Appends racing the sync may or may not be covered; the
// generation check leaves the store dirty for them, so their own Force
// still syncs.
func (e *engine) Force() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	faultpoint.Hit(FPForce)
	if !e.dirty {
		e.mu.Unlock()
		return nil
	}
	gen := e.appendGen
	e.mu.Unlock()
	err := e.m.sync()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		if e.closed {
			return ErrClosed
		}
		return err
	}
	if e.appendGen == gen {
		e.dirty = false
	}
	return nil
}

// Read implements Store.
func (e *engine) Read(c record.ClientID, lsn record.LSN) (record.Record, error) {
	recs, err := e.ReadRange(c, lsn, lsn, 0)
	if err != nil {
		return record.Record{}, err
	}
	return recs[0], nil
}

// ReadRange implements Store. The index routes every LSN: records on
// the medium are decoded out of one read per contiguous extent of the
// stream rather than two per record (a client's consecutive LSNs sit at
// ascending offsets, adjacent unless another client's appends
// interleave), and each stretch of LSNs the index places below the
// boundary is handed to the cold tier as one range, with e.mu released
// for its I/O.
func (e *engine) ReadRange(c record.ClientID, from, to record.LSN, maxBytes int) ([]record.Record, error) {
	g := rangeGather{to: to, back: to < from, maxBytes: maxBytes}
	ext := extent{span: max(2*maxBytes, 4096), backward: g.back}
	for lsn := from; ; {
		e.mu.Lock()
		run, done, err := e.readHotLocked(c, &g, &ext, lsn)
		e.mu.Unlock()
		if err == nil && !done {
			done, err = e.readCold(c, &g, run)
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
	onMedium    // at an offset the medium holds
	inCold      // at an offset below the boundary: the cold tier holds it
	maybeInCold // not indexed (a reopened index covers only the medium) but not truncated either: the cold tier holds it or nothing does
)

func (e *engine) locate(ci *clientIndex, lsn record.LSN) (int, entryRef) {
	ref, ok := ci.lookup(lsn)
	switch {
	case ok && ref.loc >= e.boundary:
		return onMedium, ref
	case ok:
		return inCold, ref
	case e.cold != nil && lsn >= ci.truncated && lsn <= ci.lastLSN:
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

// readHotLocked serves the range from lsn on out of the medium until it
// is done or reaches an LSN the cold tier must serve, and returns the
// cold run starting there. Caller holds e.mu.
func (e *engine) readHotLocked(c record.ClientID, g *rangeGather, ext *extent, lsn record.LSN) (coldRun, bool, error) {
	if e.closed {
		return coldRun{}, true, ErrClosed
	}
	ci := e.ix.clients[c]
	if ci == nil {
		return coldRun{}, true, ErrNotStored
	}
	for ; ; lsn = g.next(lsn) {
		where, ref := e.locate(ci, lsn)
		switch where {
		case nowhere:
			return coldRun{}, true, ErrNotStored
		case onMedium:
			ent, err := e.fetchEntry(ref.loc, ext)
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
			if w, _ := e.locate(ci, g.next(run.to)); w != inCold && w != maybeInCold {
				break
			}
			run.to = g.next(run.to)
		}
		return run, false, nil
	}
}

// readCold serves a cold run and reports whether the range is done.
// Called without e.mu.
func (e *engine) readCold(c record.ClientID, g *rangeGather, run coldRun) (bool, error) {
	if e.cold == nil {
		return true, fmt.Errorf("storage: LSN %d archived but no archive tier configured", run.from)
	}
	recs, err := e.cold(c, run.from, run.to, g.maxBytes-g.size)
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
// ends. Caller holds e.mu.
func (e *engine) fetchEntry(loc int64, ext *extent) (streamEntry, error) {
	if frame, ok := ext.frameAt(loc); ok {
		ent, _, err := decodeFrame(frame)
		return ent, err
	}
	if loc < e.boundary || loc+frameOverhead > e.end {
		return streamEntry{}, fmt.Errorf("storage: offset %d outside the stream [%d,%d)", loc, e.boundary, e.end)
	}
	if !ext.backward {
		ext.base, ext.buf = loc, make([]byte, min(e.end-loc, int64(ext.span)))
		if err := e.m.readAt(ext.buf, loc); err != nil {
			return streamEntry{}, err
		}
		if frame, ok := ext.frameAt(loc); ok {
			ent, _, err := decodeFrame(frame)
			return ent, err
		}
		// A frame longer than the window: read it exactly, below.
	}
	var header [frameOverhead]byte
	if err := e.m.readAt(header[:], loc); err != nil {
		return streamEntry{}, err
	}
	frameEnd := loc + frameOverhead + int64(binary.BigEndian.Uint32(header[1:5]))
	if frameEnd > e.end {
		return streamEntry{}, fmt.Errorf("storage: frame at %d runs past the stream end %d", loc, e.end)
	}
	lo := loc
	if ext.backward {
		lo = max(e.boundary, min(loc, frameEnd-int64(ext.span)))
	}
	buf := make([]byte, frameEnd-lo)
	if err := e.m.readAt(buf, lo); err != nil {
		return streamEntry{}, err
	}
	if ext.backward {
		ext.base, ext.buf = lo, buf
	}
	ent, _, err := decodeFrame(buf[loc-lo:])
	return ent, err
}

// Intervals implements Store.
func (e *engine) Intervals(c record.ClientID) []record.Interval {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ix.intervals(c)
}

// LastKey implements Store.
func (e *engine) LastKey(c record.ClientID) (record.LSN, record.Epoch) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ix.lastKey(c)
}

// Clients implements Store.
func (e *engine) Clients() []record.ClientID {
	e.mu.Lock()
	defer e.mu.Unlock()
	return sortedClients(e.ix.clients)
}

// StageCopy implements Store. The staged record is written to the
// stream at once, but becomes part of the client's log only when the
// InstallCopies commit marker follows it. A copy no install could apply
// is refused before anything is written.
func (e *engine) StageCopy(c record.ClientID, rec record.Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if err := e.ix.checkStage(c, rec); err != nil {
		return err
	}
	e.scratch = encodeRecordEntry(e.scratch[:0], kindStagedCopy, c, rec)
	loc, err := e.appendLocked(e.scratch)
	if err != nil {
		return err
	}
	e.ix.stage.add(c, rec, loc)
	return nil
}

// InstallCopies implements Store. Writing the single commit marker is
// what makes the installation atomic: replay installs the staged
// records if and only if the marker is in the stream. The marker is
// made stable before the install is acknowledged, and nothing is
// written for an install that cannot apply.
func (e *engine) InstallCopies(c record.ClientID, epoch record.Epoch, want ...Span) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	sp, err := installSpan(want)
	if err != nil {
		return err
	}
	staged, err := e.ix.takeStage(c, epoch, sp)
	if err != nil || staged == nil {
		return err
	}
	e.scratch = encodeInstallEntry(e.scratch[:0], c, epoch)
	if _, err := e.appendLocked(e.scratch); err != nil {
		return err
	}
	if err := e.m.sync(); err != nil {
		return err
	}
	e.dirty = false
	for _, sr := range staged {
		if err := faultpoint.HitErr(FPInstallPartial); err != nil {
			return err
		}
		e.ix.install(c, sr.rec, sr.loc)
	}
	return nil
}

// Truncate implements Store. The truncation point is itself written to
// the stream so it survives a crash.
func (e *engine) Truncate(c record.ClientID, before record.LSN) error {
	_, err := e.truncate(c, before)
	return err
}

// truncate applies a truncation and returns the client's resulting
// floor.
func (e *engine) truncate(c record.ClientID, before record.LSN) (record.LSN, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrClosed
	}
	ci := e.ix.clients[c]
	if ci == nil {
		return 0, ErrNotStored
	}
	e.scratch = encodeTruncateEntry(e.scratch[:0], c, before)
	if _, err := e.appendLocked(e.scratch); err != nil {
		return 0, err
	}
	ci.truncate(before)
	return ci.truncated, nil
}

// Close implements Store, closing the medium.
func (e *engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	return e.m.close()
}
