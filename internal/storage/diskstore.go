package storage

import (
	"errors"
	"fmt"
	"sync"

	"distlog/internal/disk"
	"distlog/internal/faultpoint"
	"distlog/internal/nvram"
	"distlog/internal/record"
)

// DiskStore is the log server storage design of Sections 4.1 and 4.3:
// records from all clients are interleaved into one append-only stream
// staged in battery-backed NVRAM and drained to the disk a full track
// at a time. A log force therefore completes at memory speed, the disk
// is written strictly sequentially (no seeks), and everything appended
// survives a power failure: committed tracks are on the platter and
// the open tail is in the NVRAM.
//
// Interval lists and the per-client append-forest indexes are
// volatile; after a crash NewDiskStore rebuilds them by scanning the
// stream (the paper checkpoints interval lists to bound this scan; we
// write the same checkpoint entries and always replay the full stream,
// which at simulation scale is cheap).
type DiskStore struct {
	mu sync.Mutex

	d  *disk.Disk
	nv *nvram.NVRAM

	trackSize int
	nextTrack int   // first track not yet durably written
	streamLen int64 // absolute offset of the next appended byte

	clients map[record.ClientID]*clientIndex
	stage   *stage
	closed  bool

	scratch []byte // reusable encode buffer
}

// ErrDiskFull is returned when the stream has consumed every track.
var ErrDiskFull = errors.New("storage: log disk is full")

// ErrEntryTooLarge is returned when one framed entry exceeds the NVRAM
// staging capacity.
var ErrEntryTooLarge = errors.New("storage: entry exceeds NVRAM staging capacity")

// NewDiskStore opens a store over the given devices, recovering any
// existing stream: it reads tracks sequentially until the first
// unwritten (or torn) track, appends the NVRAM's surviving staged
// bytes, and replays the combined stream to rebuild the volatile
// indexes. The NVRAM staging buffer must hold at least two tracks.
func NewDiskStore(d *disk.Disk, nv *nvram.NVRAM) (*DiskStore, error) {
	ts := d.Geometry().TrackSize
	if nv.Size() < 2*ts {
		return nil, fmt.Errorf("storage: NVRAM of %d bytes cannot stage two %d-byte tracks", nv.Size(), ts)
	}
	s := &DiskStore{d: d, nv: nv, trackSize: ts}

	// Gather the durable prefix.
	var stream []byte
	for t := 0; t < d.Geometry().NumTracks(); t++ {
		data, _, err := d.ReadTrack(t)
		if errors.Is(err, disk.ErrTornWrite) {
			// The write of this track was interrupted by the power
			// failure; its contents are still staged in NVRAM (the
			// store drains only after a successful track write), so
			// recovery resumes from here.
			break
		}
		if err != nil {
			return nil, err
		}
		if data == nil {
			break
		}
		s.nextTrack++
		stream = append(stream, data...)
	}
	stream = append(stream, nv.Staged()...)

	rs := newReplayState()
	off := int64(0)
	for off < int64(len(stream)) {
		e, n, err := decodeFrame(stream[off:])
		if err != nil {
			return nil, fmt.Errorf("storage: replay at offset %d: %w", off, err)
		}
		if n == 0 {
			break
		}
		if err := rs.apply(e, off); err != nil {
			return nil, fmt.Errorf("storage: replay at offset %d: %w", off, err)
		}
		off += int64(n)
	}
	s.streamLen = off
	s.clients = rs.clients
	s.stage = rs.stage
	return s, nil
}

// appendEntry stages one framed entry and drains full tracks, all
// under s.mu. It returns the entry's absolute offset.
func (s *DiskStore) appendEntry(entry []byte) (int64, error) {
	if len(entry) > s.nv.Size() {
		return 0, fmt.Errorf("%w: %d > %d", ErrEntryTooLarge, len(entry), s.nv.Size())
	}
	for s.nv.Len()+len(entry) > s.nv.Size() {
		if err := s.drainTrack(); err != nil {
			return 0, err
		}
	}
	loc := s.streamLen
	if err := s.nv.Append(entry); err != nil {
		return 0, err
	}
	s.streamLen += int64(len(entry))
	// Drain eagerly so reads mostly hit the disk path and the buffer
	// stays shallow.
	for s.nv.Len() >= s.trackSize {
		if err := s.drainTrack(); err != nil {
			return 0, err
		}
	}
	return loc, nil
}

// drainTrack writes the oldest full track of staged bytes to the disk.
// The bytes are removed from the NVRAM only after the track write
// succeeds, so a power failure that tears the in-flight track loses
// nothing.
func (s *DiskStore) drainTrack() error {
	if s.nv.Len() < s.trackSize {
		return nil
	}
	if s.nextTrack >= s.d.Geometry().NumTracks() {
		return ErrDiskFull
	}
	staged := s.nv.Staged()
	if _, err := s.d.WriteTrack(s.nextTrack, staged[:s.trackSize]); err != nil {
		return err
	}
	s.nv.Drain(s.trackSize)
	s.nextTrack++
	return nil
}

func (s *DiskStore) client(c record.ClientID) *clientIndex {
	ci := s.clients[c]
	if ci == nil {
		ci = newClientIndex()
		s.clients[c] = ci
	}
	return ci
}

// Append implements Store.
func (s *DiskStore) Append(c record.ClientID, rec record.Record) error {
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

// Force implements Store. The NVRAM staging buffer is non-volatile, so
// appended data is already stable; Force is a memory-speed no-op —
// exactly the property the paper's buffer exists to provide.
func (s *DiskStore) Force() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	faultpoint.Hit(FPForce)
	return nil
}

// Read implements Store.
func (s *DiskStore) Read(c record.ClientID, lsn record.LSN) (record.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readLocked(c, lsn, nil)
}

// ReadRange implements Store. Consecutive frames mostly share a track,
// so the call keeps the last track it read instead of fetching it from
// the disk again — twice — for every record.
func (s *DiskStore) ReadRange(c record.ClientID, from, to record.LSN, maxBytes int) ([]record.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	held := &heldTrack{track: -1}
	return readRange(from, to, maxBytes, func(lsn record.LSN) (record.Record, error) {
		return s.readLocked(c, lsn, held)
	})
}

// heldTrack is the durable track a ReadRange call read last. Durable
// tracks never change, and nothing drains while the call holds s.mu.
type heldTrack struct {
	track int
	data  []byte
}

func (s *DiskStore) readLocked(c record.ClientID, lsn record.LSN, held *heldTrack) (record.Record, error) {
	if s.closed {
		return record.Record{}, ErrClosed
	}
	ref, err := lookupRef(s.clients, c, lsn)
	if err != nil {
		return record.Record{}, err
	}
	e, err := s.fetchEntry(ref.loc, held)
	if err != nil {
		return record.Record{}, err
	}
	return e.rec, nil
}

// fetchEntry decodes the stream entry at the absolute offset.
func (s *DiskStore) fetchEntry(loc int64, held *heldTrack) (streamEntry, error) {
	header, err := s.fetch(loc, frameOverhead, held)
	if err != nil {
		return streamEntry{}, err
	}
	plen := int(uint32(header[1])<<24 | uint32(header[2])<<16 | uint32(header[3])<<8 | uint32(header[4]))
	frame, err := s.fetch(loc, frameOverhead+plen, held)
	if err != nil {
		return streamEntry{}, err
	}
	e, _, err := decodeFrame(frame)
	return e, err
}

// fetch gathers n stream bytes starting at absolute offset loc from
// the durable tracks and, for the tail, the NVRAM staging buffer. held,
// when non-nil, spares re-reading the track it holds and is left
// holding the last track read.
func (s *DiskStore) fetch(loc int64, n int, held *heldTrack) ([]byte, error) {
	if loc+int64(n) > s.streamLen {
		return nil, fmt.Errorf("storage: fetch [%d,%d) beyond stream end %d", loc, loc+int64(n), s.streamLen)
	}
	out := make([]byte, 0, n)
	diskEnd := int64(s.nextTrack) * int64(s.trackSize)
	for int64(len(out)) < int64(n) {
		pos := loc + int64(len(out))
		if pos < diskEnd {
			track := int(pos / int64(s.trackSize))
			within := int(pos % int64(s.trackSize))
			var data []byte
			if held != nil && held.track == track {
				data = held.data
			} else {
				var err error
				if data, _, err = s.d.ReadTrack(track); err != nil {
					return nil, err
				}
				if held != nil {
					held.track, held.data = track, data
				}
			}
			take := len(data) - within
			if rem := n - len(out); take > rem {
				take = rem
			}
			out = append(out, data[within:within+take]...)
			continue
		}
		staged := s.nv.Staged()
		within := int(pos - diskEnd)
		take := n - len(out)
		if within+take > len(staged) {
			return nil, fmt.Errorf("storage: fetch tail [%d,%d) beyond staged %d", within, within+take, len(staged))
		}
		out = append(out, staged[within:within+take]...)
	}
	return out, nil
}

// Intervals implements Store.
func (s *DiskStore) Intervals(c record.ClientID) []record.Interval {
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
func (s *DiskStore) LastKey(c record.ClientID) (record.LSN, record.Epoch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ci := s.clients[c]
	if ci == nil {
		return 0, 0
	}
	return ci.lastLSN, ci.lastEpoch
}

// Clients implements Store.
func (s *DiskStore) Clients() []record.ClientID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedClients(s.clients)
}

// StageCopy implements Store. The staged record is written to the
// stream immediately (durably), but becomes part of the client's log
// only when the InstallCopies commit marker follows it.
func (s *DiskStore) StageCopy(c record.ClientID, rec record.Record) error {
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

// InstallCopies implements Store. Writing the single commit marker is
// what makes the installation atomic: replay after a crash installs
// the staged records if and only if the marker made it to stable
// storage.
func (s *DiskStore) InstallCopies(c record.ClientID, epoch record.Epoch) error {
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

// Truncate implements Store. The truncation point is itself written to
// the stream so it survives power failures. Disk space is not
// physically reclaimed (the stream is append-only by design); freeing
// tracks is the province of spooling to offline storage, which the
// daemon deployment performs with FileStore.Compact.
func (s *DiskStore) Truncate(c record.ClientID, before record.LSN) error {
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

// Checkpoint writes the interval lists of every client into the stream
// (Section 4.3: "interval lists are checkpointed to non-volatile
// storage periodically ... to a known location on a reusable disk or
// to a write once disk along with the log data stream"; we use the
// in-stream form).
func (s *DiskStore) Checkpoint() error {
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

// StreamLen returns the total stream length in bytes (durable +
// staged).
func (s *DiskStore) StreamLen() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streamLen
}

// Close implements Store. The devices are left as-is (they belong to
// the caller, which may restart a store over them).
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
