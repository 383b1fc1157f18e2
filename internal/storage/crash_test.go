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

// diskRig owns the devices so a store can be crashed and reopened.
type diskRig struct {
	d  *disk.Disk
	nv *nvram.NVRAM
}

func newDiskRig(t *testing.T, trackSize int) *diskRig {
	t.Helper()
	g := disk.DefaultGeometry()
	g.TrackSize = trackSize
	d, err := disk.New(g)
	if err != nil {
		t.Fatal(err)
	}
	return &diskRig{d: d, nv: nvram.New(4 * trackSize)}
}

func (r *diskRig) open(t *testing.T) *DiskStore {
	t.Helper()
	s, err := NewDiskStore(r.d, r.nv)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// crash simulates a power failure and restart of the server node.
func (r *diskRig) crash(s *DiskStore) {
	s.Close()
	r.nv.Crash()
	r.nv.Restart()
}

func TestDiskStorePowerFailureRecovery(t *testing.T) {
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

func TestDiskStoreTornTrackRecovery(t *testing.T) {
	rig := newDiskRig(t, 512)
	s := rig.open(t)
	const c = record.ClientID(1)
	for i := record.LSN(1); i <= 60; i++ {
		if err := s.Append(c, rec(i, 1, "abcdefghijklmnopqrstuvwxyz")); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the most recently written track: power failed during its
	// write. The NVRAM still stages those bytes because the store only
	// drains after a successful track write... the torn track here is
	// the *next* write: emulate by tearing the last written track AND
	// verifying recovery refuses to lose data it still holds.
	writes := rig.d.Stats().TrackWrites
	if writes < 2 {
		t.Fatalf("need >= 2 track writes, got %d", writes)
	}
	s.Close()
	rig.nv.Crash()
	rig.nv.Restart()
	// Note: tearing a successfully drained track would lose data in any
	// design (the stable copy was destroyed after the buffer released
	// it); the paper's model is that a torn track is one whose write
	// was interrupted, i.e. whose bytes are still in the buffer. We
	// verify that case: re-stage the last track's bytes, tear the
	// track, and recover.
	last := int(writes) - 1
	data, _, err := rig.d.ReadTrack(last)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the pre-drain NVRAM state: the torn track's bytes
	// followed by whatever is staged now.
	tail := rig.nv.Drain(-1)
	if err := rig.nv.Append(data); err != nil {
		t.Fatal(err)
	}
	if err := rig.nv.Append(tail); err != nil {
		t.Fatal(err)
	}
	rig.d.Crash(last)

	s2 := rig.open(t)
	defer s2.Close()
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
	for i := record.LSN(1); i <= 120; i++ {
		if _, err := s2.Read(c, i); err != nil {
			t.Fatalf("Read(%d) after heal: %v", i, err)
		}
	}
}

func TestDiskStoreStagedCopiesWithoutInstallDiscarded(t *testing.T) {
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

func TestDiskStoreInstallSurvivesCrash(t *testing.T) {
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
// 1–10). Nothing writes these any more; replay must still skip them.
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

func TestDiskStoreCheckpointRoundTrip(t *testing.T) {
	rig := newDiskRig(t, 512)
	s := rig.open(t)
	const c = record.ClientID(9)
	for i := record.LSN(1); i <= 10; i++ {
		if err := s.Append(c, rec(i, 1, "x")); err != nil {
			t.Fatal(err)
		}
	}
	rig.crash(s)
	if err := rig.nv.Append(legacyCheckpointFrame); err != nil {
		t.Fatal(err)
	}
	s = rig.open(t)
	for i := record.LSN(11); i <= 20; i++ {
		if err := s.Append(c, rec(i, 1, "x")); err != nil {
			t.Fatal(err)
		}
	}
	rig.crash(s)
	s2 := rig.open(t)
	defer s2.Close()
	ivs := s2.Intervals(c)
	if len(ivs) != 1 || ivs[0] != (record.Interval{Epoch: 1, Low: 1, High: 20}) {
		t.Fatalf("Intervals after replaying a checkpoint frame = %v", ivs)
	}
	if got, err := s2.Read(c, 15); err != nil || got.LSN != 15 {
		t.Fatalf("Read(15) = %v, %v", got, err)
	}
}

func TestSegStoreReplaysLegacyCheckpointFrame(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegStore(dir, SegOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const c = record.ClientID(9)
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
		t.Fatalf("Intervals after replaying a checkpoint frame = %v", ivs)
	}
	if got, err := s.Read(c, 11); err != nil || string(got.Data) != "after" {
		t.Fatalf("Read(11) = %v, %v", got, err)
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

func TestDiskStoreNVRAMTooSmall(t *testing.T) {
	g := disk.DefaultGeometry()
	d, err := disk.New(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskStore(d, nvram.New(g.TrackSize)); err == nil {
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

func TestDiskStoreManyTracksAndClients(t *testing.T) {
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

func BenchmarkDiskStoreAppendForce(b *testing.B) {
	g := disk.DefaultGeometry()
	newStore := func() *DiskStore {
		d, err := disk.New(g)
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewDiskStore(d, nvram.New(4*g.TrackSize))
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s := newStore()
	defer func() { s.Close() }()
	data := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := record.Record{LSN: record.LSN(i + 1), Epoch: 1, Present: true, Data: data}
		err := s.Append(1, r)
		if errors.Is(err, ErrDiskFull) {
			// Long benchmark runs outlast the modelled platter: swap in
			// a fresh volume and keep appending.
			s.Close()
			s = newStore()
			err = s.Append(1, r)
		}
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Force(); err != nil {
			b.Fatal(err)
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
	stream = encodeInstallEntry(stream, c, 2)

	t.Run("disk", func(t *testing.T) {
		rig := newDiskRig(t, 512)
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
