package storage

import (
	"errors"
	"fmt"

	"distlog/internal/disk"
	"distlog/internal/nvram"
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
// volatile; after a crash NewDiskStore rebuilds them by replaying the
// stream, which at simulation scale is cheap. Truncation points are
// written to the stream but free no tracks: the stream is append-only
// by design.
type DiskStore struct {
	engine
}

// trackMedium is DiskStore's medium: the stream's durable prefix on
// whole disk tracks, its tail staged in NVRAM.
type trackMedium struct {
	d  *disk.Disk
	nv *nvram.NVRAM

	trackSize int
	nextTrack int   // first track not yet durably written
	streamLen int64 // absolute offset of the next appended byte
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
// indexes. Any frame that does not decode fails the open: the NVRAM
// holds every byte ever appended, so nothing can be torn. The NVRAM
// staging buffer must hold at least two tracks.
func NewDiskStore(d *disk.Disk, nv *nvram.NVRAM) (*DiskStore, error) {
	ts := d.Geometry().TrackSize
	if nv.Size() < 2*ts {
		return nil, fmt.Errorf("storage: NVRAM of %d bytes cannot stage two %d-byte tracks", nv.Size(), ts)
	}
	t := &trackMedium{d: d, nv: nv, trackSize: ts}

	// Gather the durable prefix.
	var stream []byte
	for t.nextTrack < d.Geometry().NumTracks() {
		data, _, err := d.ReadTrack(t.nextTrack)
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
		t.nextTrack++
		stream = append(stream, data...)
	}
	stream = append(stream, nv.Staged()...)

	ix := newLogIndex()
	end, err := eachFrame(stream, 0, ix.apply)
	if err != nil {
		return nil, fmt.Errorf("storage: replay %w", err)
	}
	t.streamLen = end
	return &DiskStore{engine{m: t, ix: ix, end: end, stable: true}}, nil
}

// append stages one framed entry and drains full tracks.
func (t *trackMedium) append(entry []byte) (int64, error) {
	if len(entry) > t.nv.Size() {
		return 0, fmt.Errorf("%w: %d > %d", ErrEntryTooLarge, len(entry), t.nv.Size())
	}
	for t.nv.Len()+len(entry) > t.nv.Size() {
		if err := t.drainTrack(); err != nil {
			return 0, err
		}
	}
	loc := t.streamLen
	if err := t.nv.Append(entry); err != nil {
		return 0, err
	}
	t.streamLen += int64(len(entry))
	// Drain eagerly so reads mostly hit the disk path and the buffer
	// stays shallow.
	for t.nv.Len() >= t.trackSize {
		if err := t.drainTrack(); err != nil {
			return 0, err
		}
	}
	return loc, nil
}

// drainTrack writes the oldest full track of staged bytes to the disk.
// The bytes are removed from the NVRAM only after the track write
// succeeds, so a power failure that tears the in-flight track loses
// nothing.
func (t *trackMedium) drainTrack() error {
	if t.nv.Len() < t.trackSize {
		return nil
	}
	if t.nextTrack >= t.d.Geometry().NumTracks() {
		return ErrDiskFull
	}
	staged := t.nv.Staged()
	if _, err := t.d.WriteTrack(t.nextTrack, staged[:t.trackSize]); err != nil {
		return err
	}
	t.nv.Drain(t.trackSize)
	t.nextTrack++
	return nil
}

// sync is a no-op: the NVRAM staging buffer is non-volatile, so
// appended data is already stable — a force completes at memory speed,
// exactly the property the paper's buffer exists to provide. (The
// engine, told the medium is stable, never calls it from Force.)
func (t *trackMedium) sync() error { return nil }

// readAt gathers stream bytes from the durable tracks and, for the
// tail, the NVRAM staging buffer.
func (t *trackMedium) readAt(p []byte, loc int64) error {
	if loc+int64(len(p)) > t.streamLen {
		return fmt.Errorf("storage: read [%d,%d) beyond stream end %d", loc, loc+int64(len(p)), t.streamLen)
	}
	diskEnd := int64(t.nextTrack) * int64(t.trackSize)
	for n := 0; n < len(p); {
		pos := loc + int64(n)
		if pos < diskEnd {
			data, _, err := t.d.ReadTrack(int(pos / int64(t.trackSize)))
			if err != nil {
				return err
			}
			n += copy(p[n:], data[pos%int64(t.trackSize):])
			continue
		}
		n += copy(p[n:], t.nv.Staged()[pos-diskEnd:])
	}
	return nil
}

// close leaves the devices as they are: they belong to the caller,
// which may restart a store over them.
func (t *trackMedium) close() error { return nil }

// StreamLen returns the total stream length in bytes (durable +
// staged).
func (s *DiskStore) StreamLen() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}
