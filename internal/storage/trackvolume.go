package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"distlog/internal/disk"
	"distlog/internal/nvram"
)

// ErrDiskFull is returned when a segment needs a slot and the track
// disk has none free.
var ErrDiskFull = errors.New("storage: log disk is full")

// trackVolume is the volume of Sections 4.1 and 5.1: a track disk
// behind battery-backed NVRAM. Each segment fills a slot of consecutive
// tracks. NVRAM stages the active segment's tail that is not yet on a
// track, so a force costs nothing and a power failure loses nothing;
// full tracks are written in order and leave NVRAM only once written.
// The slot table and the manifest live in NVRAM cells. Replay reads
// only what the slot table records, never what a reused slot's tracks
// still hold of the segment before.
type trackVolume struct {
	d          *disk.Disk
	nv         *nvram.NVRAM
	trackSize  int
	slotTracks int

	mu    sync.Mutex // guards the table: compaction removes beside appends
	table []slotEntry
	// origin is the NVRAM drain count at the active segment's first
	// byte: its bytes below Drained()-origin are on tracks.
	origin           int64
	active           *trackFile // the table's last entry
	tableVer, manVer uint64     // the cells' guard versions
}

type slotEntry struct {
	base int64
	slot int
	size int64 // sealed size; the active segment's follows from origin
}

// trackFile is one segment's slot.
type trackFile struct {
	v      *trackVolume
	first  int // the slot's first track
	size   int64
	staged bool // the active segment: its tail is in NVRAM
}

const (
	slotTableCell = "storage.slots"
	manifestCell  = "storage.manifest"
)

// OpenTrackStore opens the SegStore on the modelled track disk d behind
// the NVRAM nv, which must hold two tracks. archive, when non-nil, is
// the cold tier compaction migrates live records into. A segment is 64
// tracks (960 KiB of the default disk), or a quarter of a smaller disk.
// Every byte not on a track is in NVRAM, so nothing is ever torn and
// any frame that does not decode fails the open.
func OpenTrackStore(d *disk.Disk, nv *nvram.NVRAM, archive ArchiveTier) (*SegStore, error) {
	g := d.Geometry()
	if nv.Size() < 2*g.TrackSize {
		return nil, fmt.Errorf("storage: NVRAM of %d bytes cannot stage two %d-byte tracks", nv.Size(), g.TrackSize)
	}
	v := &trackVolume{d: d, nv: nv, trackSize: g.TrackSize, slotTracks: max(1, min(64, g.NumTracks()/4))}
	if err := v.load(); err != nil {
		return nil, err
	}
	return openSegStore(v, SegOptions{SegmentBytes: int64(v.slotTracks * v.trackSize), Archive: archive})
}

// load reads the slot table, and finishes a seal that a crash cut off
// after the table named the new active segment but before the old one's
// tail left NVRAM.
func (v *trackVolume) load() error {
	buf, ver, err := v.nv.ReadCell(slotTableCell)
	if err != nil {
		return err
	}
	v.tableVer = ver
	dec := decoder{b: buf}
	for len(dec.b) > 8 && dec.err == nil {
		e := slotEntry{base: int64(dec.u64()), slot: int(dec.u32()), size: int64(dec.u64())}
		if e.slot >= v.slots() {
			return fmt.Errorf("storage: slot table names slot %d of %d", e.slot, v.slots())
		}
		v.table = append(v.table, e)
	}
	if buf != nil {
		v.origin = int64(dec.u64())
	}
	if dec.err != nil || len(dec.b) > 0 {
		return fmt.Errorf("storage: slot table of %d bytes", len(buf))
	}
	if _, v.manVer, err = v.nv.ReadCell(manifestCell); err != nil {
		return err
	}
	if lag := v.origin - v.nv.Drained(); lag > 0 {
		if lag > int64(v.nv.Len()) {
			return fmt.Errorf("storage: active segment starts %d bytes past the NVRAM's %d staged", lag, v.nv.Len())
		}
		v.nv.Drain(int(lag))
	}
	return nil
}

func (v *trackVolume) slots() int { return v.d.Geometry().NumTracks() / v.slotTracks }

// storeTable writes the slot table's cell. Caller holds v.mu.
func (v *trackVolume) storeTable(table []slotEntry, origin int64) error {
	var buf []byte
	for _, e := range table {
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.base))
		buf = binary.BigEndian.AppendUint32(buf, uint32(e.slot))
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.size))
	}
	ver, err := v.nv.WriteCell(slotTableCell, v.tableVer, binary.BigEndian.AppendUint64(buf, uint64(origin)))
	if err == nil {
		v.table, v.origin, v.tableVer = table, origin, ver
	}
	return err
}

func (v *trackVolume) list() ([]int64, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	var bases []int64
	for _, e := range v.table {
		bases = append(bases, e.base)
	}
	return bases, nil
}

func (v *trackVolume) open(base int64) (segFile, int64, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, e := range v.table {
		if e.base == base {
			f := &trackFile{v: v, first: e.slot * v.slotTracks, size: e.size}
			if i == len(v.table)-1 {
				f.staged, f.size, v.active = true, v.nv.Drained()-v.origin+int64(v.nv.Len()), f
			}
			return f, f.size, nil
		}
	}
	return nil, 0, fmt.Errorf("storage: no segment at %d in the slot table", base)
}

// create takes a free slot and seals the active segment: its partial
// last track is written, one cell write records its size and the new
// segment, and only then does its tail leave NVRAM.
func (v *trackVolume) create(base int64) (segFile, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	used := make([]bool, v.slots())
	for _, e := range v.table {
		used[e.slot] = true
	}
	slot := 0
	for slot < len(used) && used[slot] {
		slot++
	}
	if slot == len(used) {
		return nil, ErrDiskFull
	}
	table := append([]slotEntry(nil), v.table...)
	if a := v.active; a != nil {
		if err := a.drainTracks(); err != nil {
			return nil, err
		}
		if err := a.putTrack(v.nv.Len()); err != nil {
			return nil, err
		}
		table[len(table)-1].size = a.size
	}
	tail := v.nv.Len()
	if err := v.storeTable(append(table, slotEntry{base: base, slot: slot}), v.nv.Drained()+int64(tail)); err != nil {
		return nil, err
	}
	v.nv.Drain(tail)
	if v.active != nil {
		v.active.staged = false
	}
	v.active = &trackFile{v: v, first: slot * v.slotTracks, staged: true}
	return v.active, nil
}

// remove frees a sealed segment's slot.
func (v *trackVolume) remove(base int64) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, e := range v.table[:max(0, len(v.table)-1)] {
		if e.base == base {
			return v.storeTable(append(append([]slotEntry(nil), v.table[:i]...), v.table[i+1:]...), v.origin)
		}
	}
	return nil
}

func (v *trackVolume) loadManifest() ([]byte, error) {
	buf, _, err := v.nv.ReadCell(manifestCell)
	return buf, err
}

// storeManifest writes the manifest's cell. Compaction, one pass at a
// time, is its only caller.
func (v *trackVolume) storeManifest(buf []byte) error {
	ver, err := v.nv.WriteCell(manifestCell, v.manVer, buf)
	if err == nil {
		v.manVer = ver
	}
	return err
}

// putTrack writes the first n staged bytes as the segment's next track,
// leaving them in NVRAM for the caller to drain.
func (f *trackFile) putTrack(n int) error {
	if n == 0 {
		return nil
	}
	onDisk := f.size - int64(f.v.nv.Len())
	_, err := f.v.d.WriteTrack(f.first+int(onDisk/int64(f.v.trackSize)), f.v.nv.Staged()[:n])
	return err
}

// drainTracks moves every full track of the staged tail to the disk.
func (f *trackFile) drainTracks() error {
	for f.v.nv.Len() >= f.v.trackSize {
		if err := f.putTrack(f.v.trackSize); err != nil {
			return err
		}
		f.v.nv.Drain(f.v.trackSize)
	}
	return nil
}

// WriteAt appends p to the active segment: full tracks of its tail go
// to the disk, then p is staged in NVRAM, where it is stable.
func (f *trackFile) WriteAt(p []byte, off int64) (int, error) {
	if !f.staged || off != f.size || off+int64(len(p)) > int64(f.v.slotTracks*f.v.trackSize) {
		return 0, fmt.Errorf("storage: %d-byte write at %d does not fit the active %d-track slot", len(p), off, f.v.slotTracks)
	}
	if err := f.drainTracks(); err != nil {
		return 0, err
	}
	if err := f.v.nv.Append(p); err != nil {
		return 0, err
	}
	f.size += int64(len(p))
	return len(p), nil
}

// ReadAt reads the segment's tracks and, for the active segment's
// tail, NVRAM.
func (f *trackFile) ReadAt(p []byte, off int64) (int, error) {
	var staged []byte
	if f.staged {
		staged = f.v.nv.Staged()
	}
	onDisk, ts := f.size-int64(len(staged)), int64(f.v.trackSize)
	if off < 0 || off+int64(len(p)) > f.size {
		return 0, fmt.Errorf("storage: read [%d,%d) outside a %d-byte segment", off, off+int64(len(p)), f.size)
	}
	n := 0
	for n < len(p) && off < onDisk {
		data, _, err := f.v.d.ReadTrack(f.first + int(off/ts))
		if err != nil {
			return n, err
		}
		k := copy(p[n:min(len(p), n+int(onDisk-off))], data[min(len(data), int(off%ts)):])
		if k == 0 {
			return n, fmt.Errorf("storage: track %d holds less than the slot table records", f.first+int(off/ts))
		}
		n, off = n+k, off+int64(k)
	}
	return n + copy(p[n:], staged[max(0, off-onDisk):]), nil
}

// Sync does nothing: NVRAM holds every byte not yet on a track.
func (f *trackFile) Sync() error { return nil }

// Truncate refuses: NVRAM holds every byte not yet on a track, so a
// frame that does not decode was not torn by a crash.
func (f *trackFile) Truncate(int64) error {
	return fmt.Errorf("%w: a track segment holds nothing a crash could tear", ErrBadFrame)
}

// Close leaves the devices to their owner, who may open them again.
func (f *trackFile) Close() error { return nil }
