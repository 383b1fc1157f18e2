package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
)

// FileStore appends the interleaved log stream to an ordinary file.
// Force is fsync. It is the backend used by the standalone log server
// daemon, where real durability (rather than a modelled device) is
// wanted. On open, the file is scanned to rebuild the volatile
// indexes; a torn frame at the tail (from a crash mid-write) is
// truncated away, which is safe because a frame is made stable — and
// therefore acknowledged — only by a completed Force.
type FileStore struct {
	mu sync.Mutex

	f         *os.File
	streamLen int64 // durable+buffered length; file offset of next append
	dirty     bool
	appendGen uint64 // bumped per appendEntry; Force clears dirty only if unchanged

	clients map[record.ClientID]*clientIndex
	stage   *stage
	closed  bool

	scratch []byte
}

// OpenFileStore opens (creating if needed) the store file at path and
// replays its contents.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s := &FileStore{f: f}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func (s *FileStore) recover() error {
	data, err := io.ReadAll(s.f)
	if err != nil {
		return err
	}
	rs := newReplayState()
	off := int64(0)
	for off < int64(len(data)) {
		e, n, err := decodeFrame(data[off:])
		if err != nil || n == 0 {
			// Torn tail from a crash mid-append: drop it. Everything
			// before it decoded cleanly and anything after it was
			// never acknowledged.
			break
		}
		if err := rs.apply(e, off); err != nil {
			return fmt.Errorf("storage: file replay at offset %d: %w", off, err)
		}
		off += int64(n)
	}
	if off < int64(len(data)) {
		if err := s.f.Truncate(off); err != nil {
			return err
		}
	}
	if _, err := s.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	s.streamLen = off
	s.clients = rs.clients
	s.stage = rs.stage
	return nil
}

func (s *FileStore) appendEntry(entry []byte) (int64, error) {
	loc := s.streamLen
	if _, err := s.f.WriteAt(entry, loc); err != nil {
		return 0, err
	}
	s.streamLen += int64(len(entry))
	s.dirty = true
	s.appendGen++
	return loc, nil
}

func (s *FileStore) client(c record.ClientID) *clientIndex {
	ci := s.clients[c]
	if ci == nil {
		ci = newClientIndex()
		s.clients[c] = ci
	}
	return ci
}

// Append implements Store.
func (s *FileStore) Append(c record.ClientID, rec record.Record) error {
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

// Force implements Store: fsync. The mutex is released for the fsync
// itself — appends go straight to the OS in appendEntry, so everything
// appended before this call is covered, and holding the lock across
// the device wait would stall concurrent appenders for the whole fsync
// (defeating server-side force coalescing, whose joiners must be able
// to append and reach the force group while a round is in flight).
// Appends racing the fsync may or may not be covered; the generation
// check leaves the store dirty for them, so their own Force still
// syncs.
func (s *FileStore) Force() error {
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
	f := s.f
	s.mu.Unlock()
	err := f.Sync()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		if s.closed {
			return ErrClosed // Close raced the fsync; it synced on the way out
		}
		return err
	}
	if s.appendGen == gen && s.f == f {
		s.dirty = false
	}
	return nil
}

// Read implements Store.
func (s *FileStore) Read(c record.ClientID, lsn record.LSN) (record.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readLocked(c, lsn)
}

// ReadRange implements Store.
func (s *FileStore) ReadRange(c record.ClientID, from, to record.LSN, maxBytes int) ([]record.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return readRange(from, to, maxBytes, func(lsn record.LSN) (record.Record, error) {
		return s.readLocked(c, lsn)
	})
}

func (s *FileStore) readLocked(c record.ClientID, lsn record.LSN) (record.Record, error) {
	if s.closed {
		return record.Record{}, ErrClosed
	}
	ref, err := lookupRef(s.clients, c, lsn)
	if err != nil {
		return record.Record{}, err
	}
	e, err := s.fetchEntry(ref.loc)
	if err != nil {
		return record.Record{}, err
	}
	return e.rec, nil
}

func (s *FileStore) fetchEntry(loc int64) (streamEntry, error) {
	var header [frameOverhead]byte
	if _, err := s.f.ReadAt(header[:], loc); err != nil {
		return streamEntry{}, err
	}
	plen := int(binary.BigEndian.Uint32(header[1:5]))
	frame := make([]byte, frameOverhead+plen)
	if _, err := s.f.ReadAt(frame, loc); err != nil {
		return streamEntry{}, err
	}
	e, _, err := decodeFrame(frame)
	return e, err
}

// Intervals implements Store.
func (s *FileStore) Intervals(c record.ClientID) []record.Interval {
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
func (s *FileStore) LastKey(c record.ClientID) (record.LSN, record.Epoch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ci := s.clients[c]
	if ci == nil {
		return 0, 0
	}
	return ci.lastLSN, ci.lastEpoch
}

// Clients implements Store.
func (s *FileStore) Clients() []record.ClientID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedClients(s.clients)
}

// StageCopy implements Store.
func (s *FileStore) StageCopy(c record.ClientID, rec record.Record) error {
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

// InstallCopies implements Store. The commit marker is forced before
// the install is acknowledged, making the installation atomic across
// crashes.
func (s *FileStore) InstallCopies(c record.ClientID, epoch record.Epoch) error {
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
	if err := s.f.Sync(); err != nil {
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

// Truncate implements Store. The truncation point is appended to the
// stream (durably, once forced); Compact reclaims the file space.
func (s *FileStore) Truncate(c record.ClientID, before record.LSN) error {
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
	return nil
}

// Compact rewrites the store file without entries that truncation made
// dead, reclaiming the space (the Section 5.3 "spool the old log away"
// function; here the old prefix is simply dropped — callers wanting an
// archive copy the file first). The store stays open and usable.
func (s *FileStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// Read the live stream and keep: records at or above their client's
	// truncation point, staged copies and install markers likewise, the
	// latest truncation point per client, and nothing else (checkpoints
	// are regenerated).
	data := make([]byte, s.streamLen)
	if _, err := s.f.ReadAt(data, 0); err != nil {
		return err
	}
	floor := make(map[record.ClientID]record.LSN, len(s.clients))
	for c, ci := range s.clients {
		floor[c] = ci.truncated
	}
	var out []byte
	off := int64(0)
	for off < int64(len(data)) {
		e, n, err := decodeFrame(data[off:])
		if err != nil || n == 0 {
			break
		}
		keep := false
		switch e.kind {
		case kindRecord, kindStagedCopy:
			keep = e.rec.LSN >= floor[e.client]
		case kindInstall:
			keep = true
		}
		if keep {
			out = append(out, data[off:off+int64(n)]...)
		}
		off += int64(n)
	}
	// Re-assert the truncation points after the surviving records so
	// replay clips exactly as the live index does.
	for c, before := range floor {
		if before > 0 {
			out = encodeTruncateEntry(out, c, before)
		}
	}
	// Write the compacted stream beside the live file and swap.
	tmpPath := s.f.Name() + ".compact"
	if err := os.WriteFile(tmpPath, out, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, s.f.Name()); err != nil {
		os.Remove(tmpPath)
		return err
	}
	f, err := os.OpenFile(s.f.Name(), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	s.f.Close()
	s.f = f
	s.dirty = true
	return s.reindex()
}

// reindex rebuilds the volatile indexes from the (already open) file.
// Caller holds s.mu.
func (s *FileStore) reindex() error {
	data, err := io.ReadAll(io.NewSectionReader(s.f, 0, 1<<62))
	if err != nil {
		return err
	}
	rs := newReplayState()
	off := int64(0)
	for off < int64(len(data)) {
		e, n, err := decodeFrame(data[off:])
		if err != nil || n == 0 {
			break
		}
		if err := rs.apply(e, off); err != nil {
			return err
		}
		off += int64(n)
	}
	s.streamLen = off
	s.clients = rs.clients
	s.stage = rs.stage
	return nil
}

// Checkpoint writes the interval lists of every client into the
// stream.
func (s *FileStore) Checkpoint() error {
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

// Close implements Store, syncing and closing the file.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	if err := s.f.Sync(); err != nil {
		errs = append(errs, err)
	}
	if err := s.f.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
