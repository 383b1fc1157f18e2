package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"distlog/internal/disk"
	"distlog/internal/nvram"
	"distlog/internal/record"
)

// trackRig owns the devices of a track volume, so a store on it can be
// crashed and reopened.
type trackRig struct {
	d    *disk.Disk
	nv   *nvram.NVRAM
	arch ArchiveTier
}

// trackGeometry is the default disk with the given track size and, when
// tracks > 0, about that many tracks (four to a cylinder).
func trackGeometry(trackSize, tracks int) disk.Geometry {
	g := disk.DefaultGeometry()
	g.TrackSize = trackSize
	if tracks > 0 {
		g.Cylinders = max(1, tracks/g.TracksPerCylinder)
	}
	return g
}

func newTrackRig(t testing.TB, g disk.Geometry) *trackRig {
	t.Helper()
	d, err := disk.New(g)
	if err != nil {
		t.Fatal(err)
	}
	return &trackRig{d: d, nv: nvram.New(4 * g.TrackSize)}
}

func newDiskRig(t *testing.T, trackSize int) *trackRig {
	return newTrackRig(t, trackGeometry(trackSize, 0))
}

func (r *trackRig) open(t testing.TB) *SegStore {
	t.Helper()
	s, err := OpenTrackStore(r.d, r.nv, r.arch)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// crash simulates a power failure and restart of the server node.
func (r *trackRig) crash(s *SegStore) {
	s.Close()
	r.nv.Crash()
	r.nv.Restart()
}

func TestTrackStorePowerFailureRecovery(t *testing.T) {
	rig := newDiskRig(t, 512)
	s := rig.open(t)
	const c = record.ClientID(42)
	// Write enough that several tracks are drained and a tail remains
	// staged in NVRAM.
	for i := record.LSN(1); i <= 100; i++ {
		if err := s.Append(c, rec(i, 1, fmt.Sprintf("payload-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Force(); err != nil {
		t.Fatal(err)
	}
	if rig.d.Stats().TrackWrites == 0 {
		t.Fatal("expected some tracks drained")
	}
	rig.crash(s)

	s2 := rig.open(t)
	defer s2.Close()
	for i := record.LSN(1); i <= 100; i++ {
		got, err := s2.Read(c, i)
		if err != nil {
			t.Fatalf("Read(%d) after crash: %v", i, err)
		}
		if string(got.Data) != fmt.Sprintf("payload-%04d", i) {
			t.Fatalf("Read(%d) = %q", i, got.Data)
		}
	}
	ivs := s2.Intervals(c)
	if len(ivs) != 1 || ivs[0] != (record.Interval{Epoch: 1, Low: 1, High: 100}) {
		t.Fatalf("Intervals = %v", ivs)
	}
	// The store continues accepting appends after recovery.
	if err := s2.Append(c, rec(101, 1, "after")); err != nil {
		t.Fatal(err)
	}
}

// A power failure during a track write tears that track. The store
// drains bytes from NVRAM only after a track write succeeds, so the
// torn track's bytes are still staged: recovery reads them from NVRAM
// and the next drain rewrites the track.
func TestTrackStoreTornTrackRecovery(t *testing.T) {
	rig := newDiskRig(t, 512)
	s := rig.open(t)
	const c = record.ClientID(1)
	for i := record.LSN(1); i <= 60; i++ {
		if err := s.Append(c, rec(i, 1, "abcdefghijklmnopqrstuvwxyz")); err != nil {
			t.Fatal(err)
		}
	}
	writes := rig.d.Stats().TrackWrites
	if writes < 2 {
		t.Fatalf("need >= 2 track writes, got %d", writes)
	}
	// The store's first segment starts at track 0 and writes its tracks
	// in order: the next write, the one in flight, is track `writes`.
	// Complete it as the store would, then fail the power before the
	// store could drain NVRAM, tearing the track.
	staged := rig.nv.Staged()
	if _, err := rig.d.WriteTrack(int(writes), staged[:min(len(staged), 512)]); err != nil {
		t.Fatal(err)
	}
	rig.crash(s)
	rig.d.Crash(int(writes))

	s2 := rig.open(t)
	for i := record.LSN(1); i <= 60; i++ {
		if _, err := s2.Read(c, i); err != nil {
			t.Fatalf("Read(%d) after torn-track recovery: %v", i, err)
		}
	}
	// Appending drains again, healing the torn track.
	for i := record.LSN(61); i <= 120; i++ {
		if err := s2.Append(c, rec(i, 1, "abcdefghijklmnopqrstuvwxyz")); err != nil {
			t.Fatal(err)
		}
	}
	rig.crash(s2)
	s3 := rig.open(t)
	defer s3.Close()
	for i := record.LSN(1); i <= 120; i++ {
		if _, err := s3.Read(c, i); err != nil {
			t.Fatalf("Read(%d) after heal: %v", i, err)
		}
	}
}

func TestTrackStoreStagedCopiesWithoutInstallDiscarded(t *testing.T) {
	rig := newDiskRig(t, 512)
	s := rig.open(t)
	const c = record.ClientID(1)
	for i := record.LSN(1); i <= 5; i++ {
		if err := s.Append(c, rec(i, 1, "x")); err != nil {
			t.Fatal(err)
		}
	}
	// Stage copies but crash before InstallCopies: the copies must not
	// appear in the log after recovery (the client recovery procedure
	// is restartable; uninstalled copies are dead).
	if err := s.StageCopy(c, rec(5, 2, "copy")); err != nil {
		t.Fatal(err)
	}
	if err := s.StageCopy(c, notPresent(6, 2)); err != nil {
		t.Fatal(err)
	}
	rig.crash(s)

	s2 := rig.open(t)
	defer s2.Close()
	got, err := s2.Read(c, 5)
	if err != nil || got.Epoch != 1 {
		t.Fatalf("Read(5) = %v, %v; staged copy leaked", got, err)
	}
	if _, err := s2.Read(c, 6); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Read(6): %v; uninstalled marker leaked", err)
	}
	// The new client recovery can restage and install at a higher epoch.
	if err := s2.StageCopy(c, rec(5, 3, "copy2")); err != nil {
		t.Fatal(err)
	}
	if err := s2.StageCopy(c, notPresent(6, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s2.InstallCopies(c, 3); err != nil {
		t.Fatal(err)
	}
	got, err = s2.Read(c, 5)
	if err != nil || got.Epoch != 3 {
		t.Fatalf("Read(5) after reinstall = %v, %v", got, err)
	}
}

func TestTrackStoreInstallSurvivesCrash(t *testing.T) {
	rig := newDiskRig(t, 512)
	s := rig.open(t)
	const c = record.ClientID(1)
	for i := record.LSN(1); i <= 5; i++ {
		if err := s.Append(c, rec(i, 1, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.StageCopy(c, rec(5, 2, "copy")); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallCopies(c, 2); err != nil {
		t.Fatal(err)
	}
	rig.crash(s)

	s2 := rig.open(t)
	defer s2.Close()
	got, err := s2.Read(c, 5)
	if err != nil || got.Epoch != 2 || string(got.Data) != "copy" {
		t.Fatalf("Read(5) = %v, %v", got, err)
	}
}

// legacyCheckpointFrame is an interval-list checkpoint frame as earlier
// versions wrote it: one client (9) with one interval (epoch 1, LSNs
// 1–10). Nothing has written these for a long time, and nothing decodes
// them: the frame is as bad as any other unknown kind.
var legacyCheckpointFrame = []byte{
	0x04, 0x00, 0x00, 0x00, 0x28, // kind, payload length 40
	0x00, 0x00, 0x00, 0x01, // one client
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, // client 9
	0x00, 0x00, 0x00, 0x01, // one interval
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // epoch 1
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // low 1
	0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a, // high 10
	0x25, 0x79, 0x7d, 0xe2, // CRC-32
}

// At the end of a directory volume's active segment a checkpoint frame
// is a torn tail: cut off, and the store goes on.
func TestSegStoreLegacyCheckpointFrameIsTorn(t *testing.T) {
	const c = record.ClientID(9)
	dir := t.TempDir()
	s, err := OpenSegStore(dir, SegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fillSeg(t, s, c, 10)
	s.Close()
	appendToSegment(t, dir, legacyCheckpointFrame)

	s, err = OpenSegStore(dir, SegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(c, rec(11, 1, "after")); err != nil {
		t.Fatal(err)
	}
	ivs := s.Intervals(c)
	if len(ivs) != 1 || ivs[0] != (record.Interval{Epoch: 1, Low: 1, High: 11}) {
		t.Fatalf("Intervals = %v", ivs)
	}
}

// On the track volume nothing is torn: a checkpoint frame fails the
// open.
func TestTrackStoreLegacyCheckpointFrameFailsOpen(t *testing.T) {
	if _, _, err := decodeFrame(legacyCheckpointFrame); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("decodeFrame(checkpoint) = %v, want ErrBadFrame", err)
	}
	const c = record.ClientID(9)
	rig := newDiskRig(t, 512)
	s := rig.open(t)
	fillClient(t, s, c, 10)
	rig.crash(s)
	if err := rig.nv.Append(legacyCheckpointFrame); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTrackStore(rig.d, rig.nv, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("open over a checkpoint frame = %v, want ErrBadFrame", err)
	}
}

// appendToSegment appends raw bytes to the newest segment file in dir.
func appendToSegment(t *testing.T, dir string, b []byte) {
	t.Helper()
	files := segFiles(t, dir)
	f, err := os.OpenFile(filepath.Join(dir, files[len(files)-1]), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// A run of zero bytes is not a frame. It used to decode as padding and
// be skipped a byte at a time, so a zeroed frame in a sealed segment
// reopened without error, and the record in it was gone without a
// word. Now it fails the open; only a directory volume's active
// segment may cut it off, as a torn tail.
func TestZeroedFrameFailsClosed(t *testing.T) {
	const c = record.ClientID(1)
	// frameOf locates the frame holding the client's record.
	frameOf := func(t *testing.T, s *SegStore, lsn record.LSN) (loc int64, n int) {
		t.Helper()
		ref, ok := s.ix.clients[c].lookup(lsn)
		if !ok {
			t.Fatalf("LSN %d not indexed", lsn)
		}
		got, err := s.Read(c, lsn)
		if err != nil {
			t.Fatal(err)
		}
		return ref.loc, len(encodeRecordEntry(nil, kindRecord, c, got))
	}
	t.Run("seg/sealed", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		fillSeg(t, s, c, 200)
		loc, n := frameOf(t, s, 6)
		s.Close()
		zeroFileBytes(t, filepath.Join(dir, segFiles(t, dir)[0]), loc, n)
		if _, err := OpenSegStore(dir, SegOptions{SegmentBytes: 4096}); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("reopen over a zeroed sealed frame = %v, want ErrBadFrame", err)
		}
	})
	t.Run("seg/active-tail", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 4096})
		if err != nil {
			t.Fatal(err)
		}
		fillSeg(t, s, c, 200)
		loc, n := frameOf(t, s, 200)
		base := s.segs.active().base
		s.Close()
		files := segFiles(t, dir)
		zeroFileBytes(t, filepath.Join(dir, files[len(files)-1]), loc-base, n)
		s, err = OpenSegStore(dir, SegOptions{SegmentBytes: 4096})
		if err != nil {
			t.Fatalf("reopen over a zeroed active tail: %v", err)
		}
		defer s.Close()
		if lsn, _ := s.LastKey(c); lsn != 199 {
			t.Fatalf("LastKey = %d, want the zeroed tail record 200 cut off", lsn)
		}
	})
	t.Run("disk/sealed", func(t *testing.T) {
		// Four 1 KiB slots; segment 0 fills slot 0, tracks 0-3.
		rig := newTrackRig(t, trackGeometry(256, 16))
		s := rig.open(t)
		fillClient(t, s, c, 60)
		loc, n := frameOf(t, s, 6)
		rig.crash(s)
		for ; n > 0; loc, n = loc+1, n-1 {
			track, at := int(loc/256), int(loc%256)
			data, _, err := rig.d.ReadTrack(track)
			if err != nil {
				t.Fatal(err)
			}
			data[at] = 0
			if _, err := rig.d.WriteTrack(track, data); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := OpenTrackStore(rig.d, rig.nv, nil); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("reopen over a zeroed sealed frame = %v, want ErrBadFrame", err)
		}
	})
}

// zeroFileBytes overwrites n bytes of the file at off with zeros.
func zeroFileBytes(t *testing.T, path string, off int64, n int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, n), off); err != nil {
		t.Fatal(err)
	}
}

func TestTrackStoreNVRAMTooSmall(t *testing.T) {
	g := disk.DefaultGeometry()
	d, err := disk.New(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTrackStore(d, nvram.New(g.TrackSize), nil); err == nil {
		t.Fatal("NVRAM smaller than two tracks accepted")
	}
}

func TestSegStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegStore(dir, SegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const c = record.ClientID(1)
	for i := record.LSN(1); i <= 10; i++ {
		if err := s.Append(c, rec(i, 1, "solid")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	// Simulate a crash mid-append: append half a frame of garbage.
	appendToSegment(t, dir, []byte{kindRecord, 0, 0, 0, 50, 1, 2, 3})

	s2, err := OpenSegStore(dir, SegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := record.LSN(1); i <= 10; i++ {
		if _, err := s2.Read(c, i); err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
	}
	// The torn bytes are gone; new appends land cleanly and survive
	// another reopen.
	if err := s2.Append(c, rec(11, 1, "fresh")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenSegStore(dir, SegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	got, err := s3.Read(c, 11)
	if err != nil || string(got.Data) != "fresh" {
		t.Fatalf("Read(11) = %v, %v", got, err)
	}
}

func TestSegStoreUninstalledCopiesDiscardedOnReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegStore(dir, SegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const c = record.ClientID(1)
	if err := s.Append(c, rec(1, 1, "x")); err != nil {
		t.Fatal(err)
	}
	if err := s.StageCopy(c, rec(1, 2, "copy")); err != nil {
		t.Fatal(err)
	}
	s.Close() // no InstallCopies

	s2, err := OpenSegStore(dir, SegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Read(c, 1)
	if err != nil || got.Epoch != 1 {
		t.Fatalf("Read(1) = %v, %v", got, err)
	}
}

func TestTrackStoreManyTracksAndClients(t *testing.T) {
	rig := newDiskRig(t, 1024)
	s := rig.open(t)
	clients := []record.ClientID{1, 2, 3, 4, 5}
	const perClient = 200
	for i := record.LSN(1); i <= perClient; i++ {
		for _, c := range clients {
			if err := s.Append(c, rec(i, 1, fmt.Sprintf("c%d-lsn%d-0123456789", c, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	rig.crash(s)
	s2 := rig.open(t)
	defer s2.Close()
	for _, c := range clients {
		ivs := s2.Intervals(c)
		if len(ivs) != 1 || ivs[0].High != perClient {
			t.Fatalf("client %d intervals = %v", c, ivs)
		}
		for _, i := range []record.LSN{1, perClient / 2, perClient} {
			got, err := s2.Read(c, i)
			if err != nil || string(got.Data) != fmt.Sprintf("c%d-lsn%d-0123456789", c, i) {
				t.Fatalf("Read(c=%d, %d) = %v, %v", c, i, got, err)
			}
		}
	}
}

// BenchmarkTrackStoreAppendForce appends and forces on the default
// modelled disk, truncating and compacting as a server's compactor
// would, so a long run outlasts the platter.
func BenchmarkTrackStoreAppendForce(b *testing.B) {
	s := newTrackRig(b, disk.DefaultGeometry()).open(b)
	defer s.Close()
	data := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := record.Record{LSN: record.LSN(i + 1), Epoch: 1, Present: true, Data: data}
		if err := s.Append(1, r); err != nil {
			b.Fatal(err)
		}
		if err := s.Force(); err != nil {
			b.Fatal(err)
		}
		if i%4096 == 4095 {
			if err := s.Truncate(1, r.LSN); err != nil {
				b.Fatal(err)
			}
			if _, err := s.CompactOnce(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSegStoreAppendForce(b *testing.B) {
	s, err := OpenSegStore(b.TempDir(), SegOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	data := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := record.Record{LSN: record.LSN(i + 1), Epoch: 1, Present: true, Data: data}
		if err := s.Append(1, r); err != nil {
			b.Fatal(err)
		}
		if err := s.Force(); err != nil {
			b.Fatal(err)
		}
	}
}

// durableRigs opens each durable store over a medium that survives a
// reopen: reopen closes (or crashes) the store and opens it again.
func durableRigs(t *testing.T) map[string]func(t *testing.T) (Store, func() Store) {
	return map[string]func(t *testing.T) (Store, func() Store){
		"disk": func(t *testing.T) (Store, func() Store) {
			rig := newDiskRig(t, 512)
			s := rig.open(t)
			return s, func() Store {
				rig.crash(s)
				s = rig.open(t)
				return s
			}
		},
		"seg": func(t *testing.T) (Store, func() Store) {
			dir := t.TempDir()
			open := func() *SegStore {
				s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256})
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := open()
			return s, func() Store {
				s.Close()
				s = open()
				return s
			}
		},
	}
}

// An install whose epoch is below the client's last stored epoch — a
// late retransmit from a dead incarnation, or a hostile client — is
// refused and leaves nothing behind: the store still reopens.
func TestDeadInstallWritesNothing(t *testing.T) {
	for name, mk := range durableRigs(t) {
		t.Run(name, func(t *testing.T) {
			s, reopen := mk(t)
			const c = record.ClientID(1)
			for i := record.LSN(1); i <= 3; i++ {
				if err := s.Append(c, rec(i, 1, "x")); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.StageCopy(c, rec(3, 2, "copy")); err != nil {
				t.Fatal(err)
			}
			if err := s.Append(c, rec(4, 3, "y")); err != nil {
				t.Fatal(err)
			}
			if err := s.InstallCopies(c, 2); !errors.Is(err, record.ErrEpochRegression) {
				t.Fatalf("InstallCopies(@2) after epoch 3 = %v, want ErrEpochRegression", err)
			}
			s = reopen()
			defer s.Close()
			assertDeadStageIgnored(t, s, c)
		})
	}
}

// assertDeadStageIgnored checks the state left by the dead-install
// scenario: LSNs 1–3 at epoch 1, LSN 4 at epoch 3.
func assertDeadStageIgnored(t *testing.T, s Store, c record.ClientID) {
	t.Helper()
	if got, err := s.Read(c, 3); err != nil || got.Epoch != 1 {
		t.Fatalf("Read(3) = %v, %v; the dead copy was installed", got, err)
	}
	if lsn, epoch := s.LastKey(c); lsn != 4 || epoch != 3 {
		t.Fatalf("LastKey = %d@%d, want 4@3", lsn, epoch)
	}
	if err := s.Append(c, rec(5, 3, "z")); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
}

// A stream written before dead installs were refused still holds their
// frames: a copy staged at epoch 2 before the epoch advanced, one staged
// after it, and the install marker for epoch 2. Replay must open it and
// treat the marker as a no-op.
func TestReplayIgnoresDeadInstallMarker(t *testing.T) {
	const c = record.ClientID(1)
	var stream []byte
	for i := record.LSN(1); i <= 3; i++ {
		stream = encodeRecordEntry(stream, kindRecord, c, rec(i, 1, "x"))
	}
	stream = encodeRecordEntry(stream, kindStagedCopy, c, rec(3, 2, "copy"))
	stream = encodeRecordEntry(stream, kindRecord, c, rec(4, 3, "y"))
	stream = encodeRecordEntry(stream, kindStagedCopy, c, rec(2, 2, "late-copy"))
	stream = encodeArgEntry(stream, kindInstall, c, 2)

	t.Run("disk", func(t *testing.T) {
		// The stream is the staged tail of the volume's active segment.
		rig := newDiskRig(t, 512)
		rig.crash(rig.open(t))
		if err := rig.nv.Append(stream); err != nil {
			t.Fatal(err)
		}
		s := rig.open(t)
		defer s.Close()
		assertDeadStageIgnored(t, s, c)
	})
	t.Run("seg", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segFileName(0)), stream, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSegStore(dir, SegOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		assertDeadStageIgnored(t, s, c)
	})
}
