// Package retention is the log space management subsystem of Section
// 5.3: a write-once archive tier that cold log records migrate into
// (built on the Section 4.3 append-forest in its persistent, one-node-
// per-append representation), and a background compactor that drives
// storage.SegStore reclamation while pacing itself off the force-path
// latency so space management never blows the commit path's tail.
package retention

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"distlog/internal/appendforest"
	"distlog/internal/faultpoint"
	"distlog/internal/fsutil"
	"distlog/internal/record"
)

// Archive implements storage.ArchiveTier over a directory:
//
//	vol-<base>.log     the records themselves, framed and checksummed,
//	                   cut into fixed-capacity volumes ("optical
//	                   platters"): the active volume seals on overflow
//	                   and a successor opens at base = prev base+size
//	MANIFEST           retirement boundary + per-client truncation
//	                   floors, replaced atomically
//	forest-<id>.af     per-client persistent append-forest nodes,
//	                   keyed by LSN, payload = absolute stream offset
//	                   (base+offset-in-file, so the offset itself names
//	                   the volume a lookup must route to)
//	overlay.log        fix-ups for LSNs re-archived at a higher epoch
//	                   (forest keys are write-once and strictly
//	                   increasing, so a revisit appends here instead)
//
// Volumes are append-only and sealed volumes are immutable, matching
// the write-once optical volumes the paper spools old log generations
// to — but a *full* platter whose every record has passed below every
// client's truncation floor is retired wholesale (Section 5.3):
// RetireOnce advances the manifest boundary past it and unlinks the
// file.
//
// Writes are write-behind: Archive only encodes into memory, and the
// active volume's frames, the forests' nodes and the overlay entries
// reach their files at Sync, rotation, Close, or once writeBehindBytes
// are held — always data before the nodes and entries that point at
// it, so a file never names a frame its volume does not hold. Only
// Sync is durable, which is all storage.ArchiveTier promises. All
// methods are safe for concurrent use.
type Archive struct {
	mu   sync.Mutex
	dir  string
	opts ArchiveOptions

	vols     []*volume // base-ascending; the last is the active tail
	boundary int64     // stream offset below which volumes were retired

	forests map[record.ClientID]*clientForest
	overlay *tail
	// overlays maps re-archived LSNs to their newest frame; consulted
	// before the forest on lookup.
	overlays map[overlayKey]overlayRef

	// held counts the bytes write-behind buffers hold across the active
	// volume, the forests and the overlay.
	held int64

	// floors are the freshest per-client truncation points reported via
	// Truncate; durable is the subset already persisted in the manifest.
	// Retirement decisions use only durable floors: a floor that dies
	// with the process must not have authorized deleting bytes.
	floors      map[record.ClientID]record.LSN
	durable     map[record.ClientID]record.LSN
	floorsDirty bool

	// dirUnsynced marks a rewritten forest or overlay log renamed into
	// place whose directory fsync failed: until one succeeds, Sync
	// cannot promise that the name survives a crash.
	dirUnsynced bool

	// high is each client's highest archived LSN, rebuilt from volume
	// scans on open: a client whose floor has passed it has nothing
	// readable left in the archive.
	high map[record.ClientID]record.LSN

	nodeBytes int64
	retired   uint64
	closed    bool
}

// ArchiveOptions configures OpenArchive.
type ArchiveOptions struct {
	// VolumeBytes is the capacity at which the active volume seals and
	// a fresh one opens. Zero means 64 MiB. A single frame larger than
	// the capacity still fits: it gets a fresh volume to itself.
	VolumeBytes int64
}

func (o *ArchiveOptions) fillDefaults() {
	if o.VolumeBytes <= 0 {
		o.VolumeBytes = 64 << 20
	}
}

// writeBehindBytes bounds what the write-behind buffers hold before
// Archive writes them out (not fsyncs them). It is no larger than a
// FileNodeStore's own bound, so a forest never writes its nodes ahead
// of the frames they name.
const writeBehindBytes = 1 << 20

// tail is an append-only file with write-behind: appended bytes are
// held in memory until flush writes them in one pwrite; sync makes them
// durable. Reads of held bytes are served from memory.
type tail struct {
	f       *os.File
	written int64  // bytes on the file
	held    []byte // appended bytes not yet written
	dirty   bool   // bytes written since the last fsync
}

func (t *tail) size() int64 { return t.written + int64(len(t.held)) }

func (t *tail) flush() error {
	if len(t.held) == 0 {
		return nil
	}
	if _, err := t.f.WriteAt(t.held, t.written); err != nil {
		return err
	}
	t.written += int64(len(t.held))
	t.held = t.held[:0]
	t.dirty = true
	return nil
}

func (t *tail) sync() error {
	if err := t.flush(); err != nil {
		return err
	}
	if !t.dirty {
		return nil
	}
	if err := t.f.Sync(); err != nil {
		return err
	}
	t.dirty = false
	return nil
}

// readAt fills buf from offset off, taking bytes past the file's end
// from the held buffer.
func (t *tail) readAt(buf []byte, off int64) error {
	if off < 0 || off+int64(len(buf)) > t.size() {
		return fmt.Errorf("retention: read of %d bytes at %d past the end %d", len(buf), off, t.size())
	}
	if off < t.written {
		n := min(int64(len(buf)), t.written-off)
		if _, err := t.f.ReadAt(buf[:n], off); err != nil {
			return err
		}
		buf, off = buf[n:], off+n
	}
	if len(buf) > 0 {
		copy(buf, t.held[off-t.written:])
	}
	return nil
}

// volume is one on-disk piece of the archive stream. Offsets handed to
// the forests are absolute stream offsets: base + offset-in-file, so
// the index never changes when volumes are retired.
type volume struct {
	tail
	base   int64
	path   string
	sealed bool
	// maxLSN is the highest LSN each client has framed on this volume:
	// the volume is retirable once every entry is below that client's
	// durable floor.
	maxLSN map[record.ClientID]record.LSN
}

func (v *volume) end() int64 { return v.base + v.size() }

// nodeLog is the file under a client's forest: the forest's node store
// plus the write-behind, durability and crash-repair calls the archive
// makes on it (appendforest.FileNodeStore).
type nodeLog interface {
	appendforest.NodeStore
	Flush() error
	Sync() error
	Truncate(n int64) error
	Close() error
}

type clientForest struct {
	store  nodeLog
	forest *appendforest.PersistentForest
}

type overlayKey struct {
	client record.ClientID
	lsn    record.LSN
}

type overlayRef struct {
	epoch record.Epoch
	off   int64
}

const (
	archiveOverlayName  = "overlay.log"
	archiveManifestName = "MANIFEST"

	archiveManifestMagic = 0xA6C41F0E

	// data frame: payload length u32 | client u64 | record | crc32 of
	// the payload (client + record).
	dataFrameOverhead = 4 + 4

	// overlay frame: client u64 | lsn u64 | epoch u64 | offset u64 |
	// crc32.
	overlayFrameSize = 8*4 + 4

	// rangeRun is how many forest nodes a range read fetches per store
	// read.
	rangeRun = 256
)

func forestName(c record.ClientID) string {
	return fmt.Sprintf("forest-%020d.af", uint64(c))
}

func volName(base int64) string {
	return fmt.Sprintf("vol-%020d.log", base)
}

func parseVolBase(name string) (int64, bool) {
	if !strings.HasPrefix(name, "vol-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	base, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "vol-"), ".log"), 10, 64)
	if err != nil || base < 0 {
		return 0, false
	}
	return base, true
}

// OpenArchive opens (creating if needed) an archive directory. Torn
// tails in the active volume and the overlay log — a crash mid-append
// — are discarded: a frame not fully written was never acknowledged by
// Sync. So are forest nodes and overlay entries naming an offset at or
// past the end of the stream, which only a crash that lost unsynced
// frames can leave. Stray volumes below the manifest's retirement
// boundary (a crash between the boundary advance and the unlink) are
// deleted. A pre-volume archive.log is adopted as the first volume.
func OpenArchive(dir string, opts ArchiveOptions) (*Archive, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	boundary, floors, err := readArchiveManifest(filepath.Join(dir, archiveManifestName))
	if err != nil {
		return nil, err
	}
	a := &Archive{
		dir:      dir,
		opts:     opts,
		boundary: boundary,
		forests:  make(map[record.ClientID]*clientForest),
		overlays: make(map[overlayKey]overlayRef),
		floors:   floors,
		durable:  make(map[record.ClientID]record.LSN, len(floors)),
		high:     make(map[record.ClientID]record.LSN),
	}
	for c, f := range floors {
		a.durable[c] = f
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var bases []int64
	for _, de := range des {
		if strings.HasSuffix(de.Name(), ".tmp") {
			// A crash mid-replace (manifest, overlay, or forest rewrite)
			// left its staging file behind; the rename never happened.
			os.Remove(filepath.Join(dir, de.Name()))
			continue
		}
		base, ok := parseVolBase(de.Name())
		if !ok {
			continue
		}
		if base < a.boundary {
			// Retired before the crash removed the file; its bytes must
			// never be read again.
			if err := os.Remove(filepath.Join(dir, de.Name())); err != nil {
				return nil, err
			}
			continue
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })

	next := a.boundary
	for i, base := range bases {
		if base != next {
			a.closeFiles()
			return nil, fmt.Errorf("retention: volume gap in %s: want base %d, have %d", dir, next, base)
		}
		last := i == len(bases)-1
		v, err := a.openVolume(base, last)
		if err != nil {
			a.closeFiles()
			return nil, err
		}
		v.sealed = !last
		a.vols = append(a.vols, v)
		next = v.end()
	}
	if len(a.vols) == 0 {
		v, err := a.createVolume(a.boundary)
		if err != nil {
			a.closeFiles()
			return nil, err
		}
		a.vols = append(a.vols, v)
	}

	for _, de := range des {
		var id uint64
		if n, _ := fmt.Sscanf(de.Name(), "forest-%d.af", &id); n != 1 {
			continue
		}
		err := a.openForest(record.ClientID(id))
		if err == nil {
			err = a.cutForestTail(record.ClientID(id))
		}
		if err != nil {
			a.closeFiles()
			return nil, err
		}
	}

	overlay, err := os.OpenFile(filepath.Join(dir, archiveOverlayName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		a.closeFiles()
		return nil, err
	}
	a.overlay = &tail{f: overlay}
	if err := a.loadOverlay(); err != nil {
		a.closeFiles()
		return nil, err
	}
	return a, nil
}

func (a *Archive) createVolume(base int64) (*volume, error) {
	path := filepath.Join(a.dir, volName(base))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &volume{tail: tail{f: f}, base: base, path: path, maxLSN: make(map[record.ClientID]record.LSN)}, nil
}

// openVolume opens an existing volume and scans its frames, rebuilding
// its per-client high-water marks. Only the last (active) volume may
// carry a torn tail; it is truncated away. A bad frame inside a sealed
// volume is corruption.
func (a *Archive) openVolume(base int64, last bool) (*volume, error) {
	v, err := a.createVolume(base)
	if err != nil {
		return nil, err
	}
	info, err := v.f.Stat()
	if err != nil {
		v.f.Close()
		return nil, err
	}
	buf := make([]byte, info.Size())
	if len(buf) > 0 {
		if _, err := v.f.ReadAt(buf, 0); err != nil {
			v.f.Close()
			return nil, err
		}
	}
	off := int64(0)
	for off < int64(len(buf)) {
		fr, n, err := decodeDataFrame(buf[off:])
		if err != nil {
			if !last {
				v.f.Close()
				return nil, fmt.Errorf("retention: sealed volume %s corrupt at %d: %v", v.path, off, err)
			}
			break
		}
		if v.maxLSN[fr.c] < fr.rec.LSN {
			v.maxLSN[fr.c] = fr.rec.LSN
		}
		if a.high[fr.c] < fr.rec.LSN {
			a.high[fr.c] = fr.rec.LSN
		}
		off += int64(n)
	}
	if err := v.f.Truncate(off); err != nil {
		v.f.Close()
		return nil, err
	}
	v.written = off
	return v, nil
}

func (a *Archive) openForest(c record.ClientID) error {
	if a.forests[c] != nil {
		return nil
	}
	store, err := appendforest.OpenFileNodeStore(filepath.Join(a.dir, forestName(c)))
	if err != nil {
		return err
	}
	forest, err := appendforest.OpenPersistent(store)
	if err != nil {
		store.Close()
		return err
	}
	a.forests[c] = &clientForest{store: store, forest: forest}
	a.nodeBytes += forest.Len() * appendforest.NodeSize
	return nil
}

// cutForestTail drops the forest nodes naming offsets at or past the
// end of the stream. Each append names the frame just written, so a
// forest's payloads grow with position and such nodes are a suffix.
func (a *Archive) cutForestTail(c record.ClientID) error {
	cf := a.forests[c]
	end := a.active().end()
	keep, err := cf.forest.Search(func(_ uint64, off int64) bool { return off >= end })
	if err != nil || keep == cf.forest.Len() {
		return err
	}
	if err := cf.store.Truncate(keep); err != nil {
		return err
	}
	forest, err := appendforest.OpenPersistent(cf.store)
	if err != nil {
		return err
	}
	a.nodeBytes -= (cf.forest.Len() - keep) * appendforest.NodeSize
	cf.forest = forest
	return nil
}

// loadOverlay replays the overlay log up to its first torn entry or
// its first entry naming an offset past the end of the stream (entries
// are appended naming the frame just written, so those are a suffix).
func (a *Archive) loadOverlay() error {
	info, err := a.overlay.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	buf := make([]byte, size)
	if size > 0 {
		if _, err := a.overlay.f.ReadAt(buf, 0); err != nil {
			return err
		}
	}
	end := a.active().end()
	off := int64(0)
	for off+overlayFrameSize <= size {
		fr := buf[off : off+overlayFrameSize]
		if crc32.ChecksumIEEE(fr[:overlayFrameSize-4]) != binary.BigEndian.Uint32(fr[overlayFrameSize-4:]) {
			break
		}
		k := overlayKey{
			client: record.ClientID(binary.BigEndian.Uint64(fr[0:])),
			lsn:    record.LSN(binary.BigEndian.Uint64(fr[8:])),
		}
		ref := overlayRef{
			epoch: record.Epoch(binary.BigEndian.Uint64(fr[16:])),
			off:   int64(binary.BigEndian.Uint64(fr[24:])),
		}
		if ref.off >= end {
			break
		}
		if old, ok := a.overlays[k]; !ok || ref.epoch >= old.epoch {
			a.overlays[k] = ref
		}
		off += overlayFrameSize
	}
	a.overlay.written = off
	return a.overlay.f.Truncate(off)
}

func encodeDataFrame(buf []byte, c record.ClientID, rec record.Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.BigEndian.AppendUint64(buf, uint64(c))
	buf = rec.AppendEncode(buf)
	payload := buf[start+4:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(payload)))
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
}

// dataFrameLen is the encoded size of a record's data frame.
func dataFrameLen(rec record.Record) int64 {
	return int64(dataFrameOverhead + 8 + rec.EncodedSize())
}

type dataFrame struct {
	c   record.ClientID
	rec record.Record
}

func decodeDataFrame(buf []byte) (dataFrame, int, error) {
	var out dataFrame
	if len(buf) < dataFrameOverhead+8 {
		return out, 0, errors.New("retention: truncated data frame")
	}
	plen := int(binary.BigEndian.Uint32(buf))
	total := 4 + plen + 4
	if plen < 8 || len(buf) < total {
		return out, 0, errors.New("retention: truncated data frame")
	}
	payload := buf[4 : 4+plen]
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(buf[4+plen:]) {
		return out, 0, errors.New("retention: data frame checksum mismatch")
	}
	out.c = record.ClientID(binary.BigEndian.Uint64(payload))
	rec, n, err := record.DecodeRecord(payload[8:])
	if err != nil {
		return out, 0, err
	}
	if n != plen-8 {
		return out, 0, errors.New("retention: data frame length mismatch")
	}
	out.rec = rec
	return out, total, nil
}

func (a *Archive) active() *volume { return a.vols[len(a.vols)-1] }

// Archive implements storage.ArchiveTier: store one record. Idempotent
// — an (LSN, epoch) already archived is a no-op, and a higher epoch
// for an archived LSN supersedes the older copy via the overlay. A
// record already below its client's truncation floor is dropped: it
// could never be read back, and keeping it out lets its volume retire.
// The frame and its forest node (or overlay entry) go to the
// write-behind buffers; Sync makes them durable.
func (a *Archive) Archive(c record.ClientID, rec record.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrClosed
	}
	if rec.LSN < a.floors[c] {
		return nil
	}
	existing, ok, err := a.lookupLocked(c, rec.LSN)
	if err != nil {
		return err
	}
	if ok && existing.Epoch >= rec.Epoch {
		return nil
	}
	if err := a.openForest(c); err != nil {
		return err
	}
	n := dataFrameLen(rec)
	act := a.active()
	if act.sealed || (act.size() > 0 && act.size()+n > a.opts.VolumeBytes) {
		if err := a.rotateLocked(); err != nil {
			return err
		}
		act = a.active()
	}
	off := act.end()
	act.held = encodeDataFrame(act.held, c, rec)
	a.held += n
	if act.maxLSN[c] < rec.LSN {
		act.maxLSN[c] = rec.LSN
	}
	if a.high[c] < rec.LSN {
		a.high[c] = rec.LSN
	}

	if err := a.forests[c].forest.Append(uint64(rec.LSN), off); err == nil {
		a.nodeBytes += appendforest.NodeSize
		a.held += appendforest.NodeSize
	} else if errors.Is(err, appendforest.ErrKeyOrder) {
		// The LSN revisits a forest position (a recovery copy at a higher
		// epoch): the forest is write-once, so the fix-up goes to the
		// overlay log.
		a.overlay.held = appendOverlayFrame(a.overlay.held, overlayKey{c, rec.LSN}, overlayRef{rec.Epoch, off})
		a.held += overlayFrameSize
		a.overlays[overlayKey{c, rec.LSN}] = overlayRef{epoch: rec.Epoch, off: off}
	} else {
		return err
	}
	if a.held >= writeBehindBytes {
		return a.flushLocked()
	}
	return nil
}

func appendOverlayFrame(buf []byte, k overlayKey, ref overlayRef) []byte {
	start := len(buf)
	buf = binary.BigEndian.AppendUint64(buf, uint64(k.client))
	buf = binary.BigEndian.AppendUint64(buf, uint64(k.lsn))
	buf = binary.BigEndian.AppendUint64(buf, uint64(ref.epoch))
	buf = binary.BigEndian.AppendUint64(buf, uint64(ref.off))
	return binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
}

// rotateLocked seals the active volume — its held frames written and
// fsynced — and opens its successor. A crash after the seal but before
// the successor exists is benign: the reopened volume becomes the
// active one again and the next append re-runs the rotation.
func (a *Archive) rotateLocked() error {
	act := a.active()
	if !act.sealed {
		if err := act.sync(); err != nil {
			return err
		}
		act.sealed = true
	}
	if err := faultpoint.HitErr(FPVolumeSeal); err != nil {
		return err
	}
	nv, err := a.createVolume(act.end())
	if err != nil {
		return err
	}
	// A volume whose entry may not survive a crash must take no frame:
	// Sync would report it durable and then lose it with the file.
	if err := fsutil.SyncDir(a.dir, FPSyncDir); err != nil {
		nv.f.Close()
		os.Remove(nv.path)
		return err
	}
	a.vols = append(a.vols, nv)
	return nil
}

// flushLocked writes every write-behind buffer, each in one pwrite:
// the active volume's frames first, then the forest nodes and overlay
// entries that name them. Nothing is fsynced.
func (a *Archive) flushLocked() error {
	if err := a.active().flush(); err != nil {
		return err
	}
	for _, cf := range a.forests {
		if err := cf.store.Flush(); err != nil {
			return err
		}
	}
	if err := a.overlay.flush(); err != nil {
		return err
	}
	a.held = 0
	return nil
}

// syncLocked makes every preceding Archive call durable: flush, then
// fsync the data before the files that point into it, then persist
// pending truncation floors.
func (a *Archive) syncLocked() error {
	if err := a.flushLocked(); err != nil {
		return err
	}
	if a.dirUnsynced {
		if err := fsutil.SyncDir(a.dir, FPSyncDir); err != nil {
			return err
		}
		a.dirUnsynced = false
	}
	if err := a.active().sync(); err != nil {
		return err
	}
	for _, cf := range a.forests {
		if err := cf.store.Sync(); err != nil {
			return err
		}
	}
	if err := a.overlay.sync(); err != nil {
		return err
	}
	if a.floorsDirty {
		return a.writeManifestLocked()
	}
	return nil
}

// Sync implements storage.ArchiveTier: make all preceding Archive
// calls durable. Pending truncation floors ride along: a floor is
// retirement-grade only once it has hit the manifest.
func (a *Archive) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrClosed
	}
	return a.syncLocked()
}

// Truncate implements storage.ArchiveTier: record that the client has
// truncated its log below before. Reads clamp at the floor
// immediately; retirement waits until the floor is durable (the next
// Sync or RetireOnce persists it).
func (a *Archive) Truncate(c record.ClientID, before record.LSN) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrClosed
	}
	if before > a.floors[c] {
		a.floors[c] = before
		a.floorsDirty = true
	}
	return nil
}

// Lookup returns the archived record with the highest epoch for the
// LSN. LSNs below the client's truncation floor are gone — they must
// not resurface from the cold tier even if their frames still exist on
// not-yet-retired volumes.
func (a *Archive) Lookup(c record.ClientID, lsn record.LSN) (record.Record, bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return record.Record{}, false, ErrClosed
	}
	return a.lookupLocked(c, lsn)
}

func (a *Archive) lookupLocked(c record.ClientID, lsn record.LSN) (record.Record, bool, error) {
	if lsn < a.floors[c] {
		return record.Record{}, false, nil
	}
	if ref, ok := a.overlays[overlayKey{c, lsn}]; ok {
		rec, err := a.readFrame(ref.off, c, lsn)
		return rec, err == nil, err
	}
	cf := a.forests[c]
	if cf == nil {
		return record.Record{}, false, nil
	}
	off, ok, err := cf.forest.Lookup(uint64(lsn))
	if err != nil || !ok {
		return record.Record{}, false, err
	}
	rec, err := a.readFrame(off, c, lsn)
	return rec, err == nil, err
}

// volumeAt routes an absolute stream offset to the volume holding it.
func (a *Archive) volumeAt(off int64) (*volume, error) {
	if off < a.boundary {
		return nil, fmt.Errorf("retention: frame offset %d is below the retirement boundary %d", off, a.boundary)
	}
	i := sort.Search(len(a.vols), func(i int) bool { return a.vols[i].end() > off })
	if i == len(a.vols) || off < a.vols[i].base {
		return nil, fmt.Errorf("retention: frame offset %d outside every volume", off)
	}
	return a.vols[i], nil
}

// frameEnd reads the length header of the frame at off and returns
// where the frame ends, refusing a length that runs past the volume.
func frameEnd(v *volume, off int64) (int64, error) {
	var hdr [4]byte
	if err := v.readAt(hdr[:], off-v.base); err != nil {
		return 0, err
	}
	end := off + dataFrameOverhead + int64(binary.BigEndian.Uint32(hdr[:]))
	if end > v.end() {
		return 0, fmt.Errorf("retention: frame at %d runs past its volume's end %d", off, v.end())
	}
	return end, nil
}

// readFrame reads the one frame at an absolute stream offset.
func (a *Archive) readFrame(off int64, c record.ClientID, lsn record.LSN) (record.Record, error) {
	return a.frameIn(&frameWindow{}, off, c, lsn)
}

// checkFrame decodes the frame read from off and checks it holds the
// record the index named.
func checkFrame(buf []byte, off int64, c record.ClientID, lsn record.LSN) (record.Record, error) {
	fr, _, err := decodeDataFrame(buf)
	if err != nil {
		return record.Record{}, fmt.Errorf("retention: frame at %d: %w", off, err)
	}
	if fr.c != c || fr.rec.LSN != lsn {
		return record.Record{}, fmt.Errorf("retention: frame at %d holds (%d,%d), want (%d,%d)", off, fr.c, fr.rec.LSN, c, lsn)
	}
	return fr.rec, nil
}

// ReadRange implements storage.ArchiveTier: the archived records from
// from toward to (descending when to < from), each the copy Lookup
// would return — overlay and floor are checked per LSN — stopping at
// the first LSN the archive does not hold and once maxBytes of records
// are gathered (never before the first). Where Lookup pays a forest
// descent and two preads per record, a range pays one forest search
// and one node read per run of up to rangeRun LSNs, and one pread per
// window of the volume stream its frames fall in.
func (a *Archive) ReadRange(c record.ClientID, from, to record.LSN, maxBytes int) ([]record.Record, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, ErrClosed
	}
	back := to < from
	run := nodeRun{back: back}
	win := frameWindow{span: max(2*maxBytes, 4096), back: back}
	var out []record.Record
	size := 0
	for lsn := from; lsn >= a.floors[c]; {
		ref, ok := a.overlays[overlayKey{c, lsn}]
		off := ref.off
		if !ok && a.forests[c] != nil {
			var err error
			if off, ok, err = run.offset(a.forests[c].forest, lsn, to); err != nil {
				return nil, err
			}
		}
		if !ok {
			break
		}
		rec, err := a.frameIn(&win, off, c, lsn)
		if err != nil {
			if len(out) == 0 {
				return nil, err
			}
			break
		}
		out = append(out, rec)
		size += rec.EncodedSize()
		if lsn == to || size >= maxBytes {
			break
		}
		if back {
			lsn--
		} else {
			lsn++
		}
	}
	return out, nil
}

// nodeRun is a window of consecutive forest nodes, read in one store
// read, that a range read resolves its LSNs against.
type nodeRun struct {
	back bool
	keys []uint64
	offs []int64
}

// offset returns the stream offset the forest holds for lsn, reading
// the next run of nodes toward to when lsn lies beyond the current one.
func (r *nodeRun) offset(f *appendforest.PersistentForest, lsn, to record.LSN) (int64, bool, error) {
	k := uint64(lsn)
	if n := len(r.keys); n == 0 || k < r.keys[0] || k > r.keys[n-1] {
		// The run of nodes from the lowest key the range still needs:
		// keys are strictly increasing, so the nodes for [lo, hi] are
		// consecutive positions from SeekGE(lo), at most hi-lo+1 of them.
		lo, hi := k, min(uint64(to), k+rangeRun-1)
		if r.back {
			lo, hi = max(uint64(to), k-min(k, rangeRun-1)), k
		}
		pos, err := f.SeekGE(lo)
		if err != nil {
			return 0, false, err
		}
		r.keys, r.offs = r.keys[:0], r.offs[:0]
		if err := f.Scan(pos, pos+int64(hi-lo+1), func(key uint64, off int64) error {
			r.keys = append(r.keys, key)
			r.offs = append(r.offs, off)
			return nil
		}); err != nil {
			return 0, false, err
		}
	}
	i := sort.Search(len(r.keys), func(i int) bool { return r.keys[i] >= k })
	if i == len(r.keys) || r.keys[i] != k {
		return 0, false, nil
	}
	return r.offs[i], true, nil
}

// frameWindow is a stretch of one volume's bytes held across the frame
// reads of a range read.
type frameWindow struct {
	span int  // bytes per window
	back bool // the read descends: a window ends with the frame that missed
	base int64
	buf  []byte
}

// frame returns the complete frame at absolute offset off, if the
// window holds all of it.
func (w *frameWindow) frame(off int64) ([]byte, bool) {
	rel := off - w.base
	if rel < 0 || rel+dataFrameOverhead > int64(len(w.buf)) {
		return nil, false
	}
	end := rel + dataFrameOverhead + int64(binary.BigEndian.Uint32(w.buf[rel:]))
	if end > int64(len(w.buf)) {
		return nil, false
	}
	return w.buf[rel:end], true
}

// frameIn decodes the frame at off out of the window, first reading
// the window that covers it — and the frames the range reaches next —
// on a miss: forward from the frame, or backward to its end.
func (a *Archive) frameIn(w *frameWindow, off int64, c record.ClientID, lsn record.LSN) (record.Record, error) {
	if buf, ok := w.frame(off); ok {
		return checkFrame(buf, off, c, lsn)
	}
	v, err := a.volumeAt(off)
	if err != nil {
		return record.Record{}, err
	}
	end, err := frameEnd(v, off)
	if err != nil {
		return record.Record{}, err
	}
	lo, hi := off, max(end, min(v.end(), off+int64(w.span)))
	if w.back {
		lo, hi = min(off, max(v.base, end-int64(w.span))), end
	}
	w.base = lo
	w.buf = slices.Grow(w.buf[:0], int(hi-lo))[:hi-lo]
	if err := v.readAt(w.buf, lo-v.base); err != nil {
		return record.Record{}, err
	}
	buf, _ := w.frame(off)
	return checkFrame(buf, off, c, lsn)
}

// RetireOnce performs at most one unit of archive housekeeping and
// reports whether it did anything: persist pending truncation floors,
// retire the oldest sealed volume whose every record is below its
// client's durable floor, drop a forest whose whole keyspace has been
// truncated, or compact dead overlay entries. Driven by the Compactor
// loop between reclamation passes.
func (a *Archive) RetireOnce() (bool, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false, ErrClosed
	}
	if a.floorsDirty {
		if err := a.writeManifestLocked(); err != nil {
			return false, err
		}
	}
	if len(a.vols) > 1 {
		v := a.vols[0]
		if v.sealed && a.retirableLocked(v) {
			if a.boundary < v.end() {
				// The boundary advance must be durable before the bytes
				// disappear: reopen must know never to look for them.
				a.boundary = v.end()
				if err := a.writeManifestLocked(); err != nil {
					a.boundary = v.base
					return false, err
				}
			}
			if err := faultpoint.HitErr(FPVolumeRetire); err != nil {
				return false, err
			}
			v.f.Close()
			if err := os.Remove(v.path); err != nil && !errors.Is(err, os.ErrNotExist) {
				return false, err
			}
			a.vols = a.vols[1:]
			a.retired++
			return true, nil
		}
	}
	for c, cf := range a.forests {
		n := cf.forest.Len()
		if n == 0 {
			continue
		}
		floor := a.durable[c]
		if floor > record.LSN(cf.forest.MaxKey()) {
			// Every key in this forest is below the client's durable floor:
			// the index retires with its volumes. A later Archive call for
			// the client recreates it empty.
			a.nodeBytes -= n * appendforest.NodeSize
			cf.store.Close()
			if err := os.Remove(filepath.Join(a.dir, forestName(c))); err != nil && !errors.Is(err, os.ErrNotExist) {
				return false, err
			}
			delete(a.forests, c)
			return true, nil
		}
		// Keys are strictly increasing in node order, so the dead nodes
		// are a prefix, measured by one search. Once they are the
		// majority, rewrite the forest without them — otherwise the index
		// of a long-lived client grows without bound even as its volumes
		// retire.
		dead, err := cf.forest.SeekGE(uint64(floor))
		if err != nil {
			return false, err
		}
		if dead*2 > n {
			if err := a.compactForestLocked(c, dead); err != nil {
				return false, err
			}
			return true, nil
		}
	}
	for k := range a.overlays {
		if k.lsn < a.durable[k.client] {
			if err := a.compactOverlayLocked(); err != nil {
				return false, err
			}
			return true, nil
		}
	}
	return false, nil
}

// compactForestLocked rewrites a client's forest node log without its
// dead first nodes (a strictly-increasing-key forest stays valid under
// a prefix cut: the surviving appends replay in the same order),
// copying the live suffix with bulk sequential reads. The rewrite is
// crash-safe: the new log is built beside the old one and renamed over
// it; a crash leaves either file whole, and a stray .tmp is removed on
// open. The archive is synced first, so the rewritten log — durable at
// the rename — names only durable frames.
func (a *Archive) compactForestLocked(c record.ClientID, dead int64) error {
	if err := a.syncLocked(); err != nil {
		return err
	}
	cf := a.forests[c]
	path := filepath.Join(a.dir, forestName(c))
	tmp := path + ".tmp"
	os.Remove(tmp)
	store, err := appendforest.OpenFileNodeStore(tmp)
	if err != nil {
		return err
	}
	nf, err := appendforest.OpenPersistent(store)
	if err == nil {
		err = cf.forest.Scan(dead, cf.forest.Len(), nf.Append)
	}
	if err == nil {
		err = store.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		store.Close()
		os.Remove(tmp)
		return err
	}
	// The new log now holds the name: the old one is gone from the
	// directory, so the archive moves over whether or not the
	// directory sync succeeds. A failure is kept for Sync to retry.
	a.nodeBytes += (nf.Len() - cf.forest.Len()) * appendforest.NodeSize
	cf.store.Close()
	a.forests[c] = &clientForest{store: store, forest: nf}
	return a.syncRenamed()
}

// syncRenamed syncs the directory after a log was renamed into place,
// leaving dirUnsynced set for the next Sync when it fails.
func (a *Archive) syncRenamed() error {
	a.dirUnsynced = true
	if err := fsutil.SyncDir(a.dir, FPSyncDir); err != nil {
		return err
	}
	a.dirUnsynced = false
	return nil
}

// retirableLocked reports whether every record on the volume is below
// its client's durable truncation floor.
func (a *Archive) retirableLocked(v *volume) bool {
	for c, max := range v.maxLSN {
		if a.durable[c] <= max {
			return false
		}
	}
	return true
}

// compactOverlayLocked rewrites the overlay log without entries below
// their client's durable floor. Like a forest rewrite it syncs the
// archive first: the new log is durable at the rename.
func (a *Archive) compactOverlayLocked() error {
	if err := a.syncLocked(); err != nil {
		return err
	}
	type entry struct {
		k   overlayKey
		ref overlayRef
	}
	var live []entry
	for k, ref := range a.overlays {
		if k.lsn >= a.durable[k.client] {
			live = append(live, entry{k, ref})
		}
	}
	// Offset order keeps the log's entries naming ascending offsets, the
	// shape loadOverlay's past-the-end cut relies on.
	sort.Slice(live, func(i, j int) bool { return live[i].ref.off < live[j].ref.off })
	buf := make([]byte, 0, len(live)*overlayFrameSize)
	for _, e := range live {
		buf = appendOverlayFrame(buf, e.k, e.ref)
	}
	path := filepath.Join(a.dir, archiveOverlayName)
	tmp := path + ".tmp"
	if err := fsutil.WriteFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	a.overlay.f.Close()
	a.overlay = &tail{f: f, written: int64(len(buf))}
	for k := range a.overlays {
		if k.lsn < a.durable[k.client] {
			delete(a.overlays, k)
		}
	}
	return a.syncRenamed()
}

// writeManifestLocked durably replaces the manifest (tmp + fsync +
// rename + directory sync) with the current boundary and floors, which
// become the durable ones retirement may rely on.
func (a *Archive) writeManifestLocked() error {
	clients := make([]record.ClientID, 0, len(a.floors))
	for c := range a.floors {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	buf := binary.BigEndian.AppendUint32(nil, archiveManifestMagic)
	buf = append(buf, 1)
	buf = binary.BigEndian.AppendUint64(buf, uint64(a.boundary))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(clients)))
	for _, c := range clients {
		buf = binary.BigEndian.AppendUint64(buf, uint64(c))
		buf = binary.BigEndian.AppendUint64(buf, uint64(a.floors[c]))
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))

	path := filepath.Join(a.dir, archiveManifestName)
	tmp := path + ".tmp"
	if err := fsutil.WriteFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Until the rename is durable the floors are not: retirement must
	// not delete on their word. floorsDirty stays set for a retry.
	if err := fsutil.SyncDir(a.dir, FPSyncDir); err != nil {
		return err
	}
	for c, f := range a.floors {
		a.durable[c] = f
	}
	a.floorsDirty = false
	return nil
}

// readArchiveManifest reads the manifest at path; a missing file
// yields the empty state (a brand-new or pre-volume archive).
func readArchiveManifest(path string) (int64, map[record.ClientID]record.LSN, error) {
	floors := make(map[record.ClientID]record.LSN)
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, floors, nil
	}
	if err != nil {
		return 0, nil, err
	}
	if len(buf) < 4+1+8+4+4 {
		return 0, nil, fmt.Errorf("retention: manifest %s too short", path)
	}
	body, sum := buf[:len(buf)-4], binary.BigEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, fmt.Errorf("retention: manifest %s checksum mismatch", path)
	}
	if binary.BigEndian.Uint32(body) != archiveManifestMagic {
		return 0, nil, fmt.Errorf("retention: manifest %s bad magic", path)
	}
	if body[4] != 1 {
		return 0, nil, fmt.Errorf("retention: manifest %s unknown version %d", path, body[4])
	}
	boundary := int64(binary.BigEndian.Uint64(body[5:]))
	n := int(binary.BigEndian.Uint32(body[13:]))
	if len(body) != 17+n*16 {
		return 0, nil, fmt.Errorf("retention: manifest %s truncated", path)
	}
	off := 17
	for i := 0; i < n; i++ {
		c := record.ClientID(binary.BigEndian.Uint64(body[off:]))
		floors[c] = record.LSN(binary.BigEndian.Uint64(body[off+8:]))
		off += 16
	}
	return boundary, floors, nil
}

// Bytes implements storage.ArchiveTier: the archive's stored size
// (volumes + forest nodes + overlay).
func (a *Archive) Bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, v := range a.vols {
		n += v.size()
	}
	return n + a.nodeBytes + a.overlay.size()
}

// ReclaimableBytes is what a retirement pass could free right now:
// the oldest-first run of sealed volumes whose records are all below
// the freshest floors, plus index files wholly below the floor. Feeds
// the storage.disk.archive_reclaimable gauge and the rebalancer's
// headroom placement.
func (a *Archive) ReclaimableBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, v := range a.vols[:len(a.vols)-1] {
		if !v.sealed {
			break
		}
		dead := true
		for c, max := range v.maxLSN {
			if a.floors[c] <= max {
				dead = false
				break
			}
		}
		if !dead {
			// Retirement is oldest-first: a pinned volume pins its
			// successors too.
			break
		}
		n += v.size()
	}
	for c, cf := range a.forests {
		if cf.forest.Len() > 0 && a.floors[c] > record.LSN(cf.forest.MaxKey()) {
			n += cf.forest.Len() * appendforest.NodeSize
		}
	}
	return n
}

// Clients lists the clients with readable archived records: a client
// whose truncation floor has passed everything it archived no longer
// appears.
func (a *Archive) Clients() []record.ClientID {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]record.ClientID, 0, len(a.forests))
	for c := range a.forests {
		if a.floors[c] > a.high[c] {
			continue
		}
		out = append(out, c)
	}
	return out
}

// Floor returns the freshest truncation floor known for the client.
func (a *Archive) Floor(c record.ClientID) record.LSN {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.floors[c]
}

// Dir returns the archive's directory.
func (a *Archive) Dir() string { return a.dir }

// Boundary returns the retirement boundary: the absolute stream offset
// below which volumes have been deleted.
func (a *Archive) Boundary() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.boundary
}

// Volumes returns how many volumes are on disk; Retired how many have
// been deleted over the archive's lifetime (this process).
func (a *Archive) Volumes() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.vols)
}

// Retired returns how many volumes RetireOnce has unlinked.
func (a *Archive) Retired() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retired
}

func (a *Archive) closeFiles() {
	for _, v := range a.vols {
		v.f.Close()
	}
	for _, cf := range a.forests {
		cf.store.Close()
	}
	if a.overlay != nil {
		a.overlay.f.Close()
	}
}

// Close syncs the archive, as Sync would, and releases its files.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	errs := []error{a.syncLocked()}
	for _, v := range a.vols {
		errs = append(errs, v.f.Close())
	}
	for _, cf := range a.forests {
		errs = append(errs, cf.store.Close())
	}
	errs = append(errs, a.overlay.f.Close())
	return errors.Join(errs...)
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("retention: archive is closed")
