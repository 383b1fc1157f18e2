package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
)

// memArchive is an in-memory ArchiveTier double for compaction tests
// (the real tier lives in internal/retention, which depends on this
// package).
type memArchive struct {
	mu      sync.Mutex
	recs    map[record.ClientID]map[record.LSN]record.Record
	floors  map[record.ClientID]record.LSN
	bytes   int64
	appends int
	syncs   int

	failArchive error
}

func newMemArchive() *memArchive {
	return &memArchive{recs: make(map[record.ClientID]map[record.LSN]record.Record)}
}

func (a *memArchive) Archive(c record.ClientID, r record.Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failArchive != nil {
		return a.failArchive
	}
	m := a.recs[c]
	if m == nil {
		m = make(map[record.LSN]record.Record)
		a.recs[c] = m
	}
	if old, ok := m[r.LSN]; ok && old.Epoch >= r.Epoch {
		return nil
	}
	m[r.LSN] = r.Clone()
	a.bytes += int64(len(r.Data))
	a.appends++
	return nil
}

func (a *memArchive) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.syncs++
	return nil
}

func (a *memArchive) ReadRange(c record.ClientID, from, to record.LSN, maxBytes int) ([]record.Record, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	recs, err := readRange(from, to, maxBytes, func(lsn record.LSN) (record.Record, error) {
		r, ok := a.recs[c][lsn]
		if !ok || lsn < a.floors[c] {
			return record.Record{}, ErrNotStored
		}
		return r.Clone(), nil
	})
	if errors.Is(err, ErrNotStored) {
		return nil, nil
	}
	return recs, err
}

func (a *memArchive) Truncate(c record.ClientID, before record.LSN) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.floors == nil {
		a.floors = make(map[record.ClientID]record.LSN)
	}
	if before > a.floors[c] {
		a.floors[c] = before
	}
	return nil
}

func (a *memArchive) Bytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.bytes
}

// blockingArchive holds its lock across Sync — as a real archive holds
// its I/O lock across the fsyncs — and Sync blocks until released.
type blockingArchive struct {
	*memArchive
	syncing chan struct{} // closed once the first Sync holds the lock
	once    sync.Once
	release chan struct{}
}

func (a *blockingArchive) Sync() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.once.Do(func() { close(a.syncing) })
	<-a.release
	return nil
}

// TestSegStoreWritePathNotBlockedByArchive is the regression test for
// a priority inversion: Truncate called into the archive while holding
// the store mutex, so an archive busy syncing (or retiring) stalled one
// client's Truncate and, behind it, every other client's Append and
// Force on the server. Truncate now only notes the floor; the archive
// gets it at its next call.
func TestSegStoreWritePathNotBlockedByArchive(t *testing.T) {
	arch := &blockingArchive{memArchive: newMemArchive(), syncing: make(chan struct{}), release: make(chan struct{})}
	s, err := OpenSegStore(t.TempDir(), SegOptions{SegmentBytes: 256, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var once sync.Once
	release := func() { once.Do(func() { close(arch.release) }) }
	defer release()

	const c1, c2 = record.ClientID(1), record.ClientID(2)
	fillSeg(t, s, c1, 20)
	compacted := make(chan error, 1)
	go func() {
		_, err := s.CompactOnce()
		compacted <- err
	}()
	select {
	case <-arch.syncing:
	case <-time.After(5 * time.Second):
		t.Fatal("compaction never reached the archive's Sync")
	}

	done := make(chan error, 2)
	go func() { done <- s.Truncate(c1, 10) }()
	go func() {
		if err := s.Append(c2, rec(1, 1, "other-client")); err != nil {
			done <- err
			return
		}
		done <- s.Force()
	}()
	for range 2 {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a write-path call queued behind the archive's Sync")
		}
	}

	release()
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	// The floor reaches the archive with the next archive call.
	if _, err := s.CompactOnce(); err != nil {
		t.Fatal(err)
	}
	arch.mu.Lock()
	floor := arch.floors[c1]
	arch.mu.Unlock()
	if floor != 10 {
		t.Fatalf("archive floor for client %d = %d, want 10", c1, floor)
	}
}

// TestSegStoreWritePathNotBlockedByFold: compaction folds the victim
// segment's entries into the manifest's base state — thousands of index
// updates for a full segment — and held the store mutex for all of it,
// so every Append and Force on the server waited out the fold. The fold
// now runs beside the foreground; an append issued while a fold is held
// must complete.
func TestSegStoreWritePathNotBlockedByFold(t *testing.T) {
	s, err := OpenSegStore(t.TempDir(), SegOptions{SegmentBytes: 256, Archive: newMemArchive()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const c1, c2 = record.ClientID(1), record.ClientID(2)
	fillSeg(t, s, c1, 20)

	folding, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	faultpoint.Arm(FPSegmentFold, 1, func() {
		close(folding)
		<-release
	})
	defer faultpoint.Reset()
	compacted := make(chan error, 1)
	go func() {
		ok, err := s.CompactOnce()
		if err == nil && !ok {
			err = errors.New("no segment reclaimed")
		}
		compacted <- err
	}()
	select {
	case <-folding:
	case <-time.After(5 * time.Second):
		t.Fatal("compaction never reached the fold")
	}

	done := make(chan error, 1)
	go func() {
		if err := s.Append(c2, rec(1, 1, "during-fold")); err != nil {
			done <- err
			return
		}
		done <- s.Force()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("an append queued behind the compaction fold")
	}

	unblock()
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	for i := record.LSN(1); i <= 20; i++ {
		if _, err := s.Read(c1, i); err != nil {
			t.Fatalf("Read(%d) after the fold: %v", i, err)
		}
	}
	if got, err := s.Read(c2, 1); err != nil || string(got.Data) != "during-fold" {
		t.Fatalf("Read(c2, 1) = %q, %v", got.Data, err)
	}
}

// TestSegStoreSyncDirFailsClosed: a directory fsync that fails leaves
// a directory entry that may not survive a crash. A segment created
// under one must take no record (the Append fails, and the server
// redirects the client as for a full store), and a manifest renamed
// under one must not license removing the segment it supersedes.
func TestSegStoreSyncDirFailsClosed(t *testing.T) {
	boom := errors.New("directory fsync failed")
	defer faultpoint.Reset()

	t.Run("segment-create", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		const c = record.ClientID(3)
		faultpoint.ArmErr(FPSyncDir, 1, boom)
		var failed record.LSN
		for i := record.LSN(1); i <= 40 && failed == 0; i++ {
			switch err := s.Append(c, rec(i, 1, fmt.Sprintf("payload-%04d", i))); {
			case errors.Is(err, boom):
				failed = i
			case err != nil:
				t.Fatal(err)
			}
		}
		if failed == 0 {
			t.Fatal("no append reached a segment boundary")
		}
		if got := len(segFiles(t, dir)); got != 1 {
			t.Fatalf("%d segment files after the failed create, want 1", got)
		}
		if _, err := s.Read(c, failed); err == nil {
			t.Fatalf("record %d readable after its append failed", failed)
		}
		// The next append retries the segment and succeeds.
		if err := s.Append(c, rec(failed, 1, "retried")); err != nil {
			t.Fatal(err)
		}
		if err := s.Force(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("manifest", func(t *testing.T) {
		dir := t.TempDir()
		arch := newMemArchive()
		s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256, Archive: arch})
		if err != nil {
			t.Fatal(err)
		}
		const c = record.ClientID(4)
		fillSeg(t, s, c, 40)
		files := len(segFiles(t, dir))
		faultpoint.ArmErr(FPSyncDir, 1, boom)
		if _, err := s.CompactOnce(); !errors.Is(err, boom) {
			t.Fatalf("CompactOnce = %v, want the directory fsync failure", err)
		}
		if got := len(segFiles(t, dir)); got != files {
			t.Fatalf("%d segment files after the failed manifest sync, had %d", got, files)
		}
		s.Close()

		s, err = OpenSegStore(dir, SegOptions{SegmentBytes: 256, Archive: arch})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := record.LSN(1); i <= 40; i++ {
			if _, err := s.Read(c, i); err != nil {
				t.Fatalf("Read(%d) after reopen: %v", i, err)
			}
		}
	})
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, de := range des {
		if strings.HasPrefix(de.Name(), "seg-") {
			out = append(out, de.Name())
		}
	}
	return out
}

// fillSeg appends n records for the client and forces.
func fillSeg(t *testing.T, s *SegStore, c record.ClientID, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		if err := s.Append(c, rec(record.LSN(i), 1, fmt.Sprintf("payload-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Force(); err != nil {
		t.Fatal(err)
	}
}

func TestSegStoreSealsAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const c = record.ClientID(3)
	fillSeg(t, s, c, 40)
	u := s.Usage()
	if u.Segments < 3 || u.SealedSegments != u.Segments-1 {
		t.Fatalf("expected several sealed segments, got %+v", u)
	}
	if got := len(segFiles(t, dir)); got != u.Segments {
		t.Fatalf("segment files on disk = %d, Usage reports %d", got, u.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = OpenSegStore(dir, SegOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := record.LSN(1); i <= 40; i++ {
		got, err := s.Read(c, i)
		if err != nil {
			t.Fatalf("Read(%d) after reopen: %v", i, err)
		}
		if string(got.Data) != fmt.Sprintf("payload-%04d", i) {
			t.Fatalf("Read(%d) = %q", i, got.Data)
		}
	}
	if lsn, _ := s.LastKey(c); lsn != 40 {
		t.Fatalf("LastKey = %d, want 40", lsn)
	}
	// Appends continue in the reopened active segment.
	if err := s.Append(c, rec(41, 1, "after-reopen")); err != nil {
		t.Fatal(err)
	}
}

func TestSegStoreTornTailOnlyInActiveSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const c = record.ClientID(1)
	fillSeg(t, s, c, 30)
	s.Close()

	// Tear the last few bytes off the newest segment (the active one).
	files := segFiles(t, dir)
	last := filepath.Join(dir, files[len(files)-1])
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	s, err = OpenSegStore(dir, SegOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen with torn active tail: %v", err)
	}
	lsn, _ := s.LastKey(c)
	if lsn >= 30 || lsn == 0 {
		t.Fatalf("LastKey = %d, want the tail record dropped", lsn)
	}
	s.Close()

	// A torn frame in a sealed segment is corruption, not a tail.
	files = segFiles(t, dir)
	first := filepath.Join(dir, files[0])
	info, err = os.Stat(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(first, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256}); err == nil {
		t.Fatal("reopen with torn sealed segment succeeded, want corruption error")
	}
}

func TestSegStoreCompactOnceArchivesAndDeletes(t *testing.T) {
	dir := t.TempDir()
	arch := newMemArchive()
	s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const c = record.ClientID(9)
	fillSeg(t, s, c, 40)

	before := s.Usage()
	for {
		ok, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	after := s.Usage()
	if after.Segments != 1 || after.SealedSegments != 0 {
		t.Fatalf("compaction left %+v, want only the active segment", after)
	}
	if after.LiveBytes >= before.LiveBytes {
		t.Fatalf("live bytes did not shrink: %d -> %d", before.LiveBytes, after.LiveBytes)
	}
	if arch.appends == 0 || after.ArchivedBytes == 0 {
		t.Fatal("nothing was archived")
	}
	if got := len(segFiles(t, dir)); got != 1 {
		t.Fatalf("%d segment files remain, want 1", got)
	}

	// Every record still reads — early ones from the archive, late ones
	// from the surviving active segment.
	for i := record.LSN(1); i <= 40; i++ {
		got, err := s.Read(c, i)
		if err != nil {
			t.Fatalf("Read(%d) after compaction: %v", i, err)
		}
		if string(got.Data) != fmt.Sprintf("payload-%04d", i) {
			t.Fatalf("Read(%d) = %q", i, got.Data)
		}
	}
	ivs := s.Intervals(c)
	if len(ivs) != 1 || ivs[0].Low != 1 || ivs[0].High != 40 {
		t.Fatalf("Intervals = %v, want [1..40]", ivs)
	}

	// And after a reopen, the manifest seeds replay: the archived prefix
	// still resolves without the deleted segment files.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := record.LSN(1); i <= 40; i++ {
		got, err := s2.Read(c, i)
		if err != nil {
			t.Fatalf("Read(%d) after compaction+reopen: %v", i, err)
		}
		if string(got.Data) != fmt.Sprintf("payload-%04d", i) {
			t.Fatalf("Read(%d) = %q", i, got.Data)
		}
	}
}

func TestSegStoreCompactionSkipsTruncatedRecords(t *testing.T) {
	arch := newMemArchive()
	s, err := OpenSegStore(t.TempDir(), SegOptions{SegmentBytes: 256, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const c = record.ClientID(2)
	fillSeg(t, s, c, 40)
	if err := s.Truncate(c, 35); err != nil {
		t.Fatal(err)
	}
	for {
		ok, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	// Records below the truncation point are dead: not archived.
	for lsn := range arch.recs[c] {
		if lsn < 35 {
			t.Fatalf("truncated LSN %d was archived", lsn)
		}
	}
	assertTruncationFloorHolds(t, s, c, 35, 40)
}

func TestSegStoreCompactWithoutArchiveOnlyReclaimsDeadSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	const c = record.ClientID(4)
	fillSeg(t, s, c, 40)

	// Live records, no archive: nothing may be reclaimed.
	if ok, err := s.CompactOnce(); err != nil || ok {
		t.Fatalf("CompactOnce = (%v, %v), want (false, nil) without an archive", ok, err)
	}

	// Truncate everything but the tail: fully-dead sealed segments can
	// go even without an archive tier.
	if err := s.Truncate(c, 40); err != nil {
		t.Fatal(err)
	}
	reclaimed := 0
	for {
		ok, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		reclaimed++
	}
	if reclaimed == 0 {
		t.Fatal("no fully-dead segment was reclaimed")
	}
	if got, err := s.Read(c, 40); err != nil || string(got.Data) != "payload-0040" {
		t.Fatalf("Read(40) = %v, %v", got, err)
	}

	// The compacted store stays usable and replays to the same state.
	if err := s.Append(c, rec(41, 1, "post-compact")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s, err = OpenSegStore(dir, SegOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(c, 41); err != nil || string(got.Data) != "post-compact" {
		t.Fatalf("Read(41) after reopen = %v, %v", got, err)
	}
	if _, err := s.Read(c, 20); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Read(20) after reopen: %v", err)
	}
	if lsn, _ := s.LastKey(c); lsn != 41 {
		t.Fatalf("LastKey after reopen = %d", lsn)
	}
}

func TestSegStoreCompactionPinnedByPendingStage(t *testing.T) {
	arch := newMemArchive()
	s, err := OpenSegStore(t.TempDir(), SegOptions{SegmentBytes: 256, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const c = record.ClientID(5)
	// Stage copies into the first segment, then fill past several seals
	// without installing.
	for i := 1; i <= 3; i++ {
		if err := s.StageCopy(c, rec(record.LSN(i), 2, fmt.Sprintf("staged-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 4; i <= 40; i++ {
		if err := s.Append(c, rec(record.LSN(i), 2, fmt.Sprintf("payload-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Force(); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.CompactOnce(); err != nil || ok {
		t.Fatalf("CompactOnce = (%v, %v), want pinned by pending stage", ok, err)
	}
	// Install resolves the pin; compaction proceeds and the installed
	// copies read back from the archive after their segment is gone.
	if err := s.InstallCopies(c, 2); err != nil {
		t.Fatal(err)
	}
	for {
		ok, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	for i := record.LSN(1); i <= 3; i++ {
		got, err := s.Read(c, i)
		if err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		if string(got.Data) != fmt.Sprintf("staged-%d", i) {
			t.Fatalf("Read(%d) = %q", i, got.Data)
		}
	}
}

// TestSegStoreStagePinReleasedByClientRestartDiscard: a restarted
// client installs at its new epoch, so the stage its crashed recovery
// left behind can never install. The first record at the new epoch
// drops it, and with it the pin on the segment it was written to.
func TestSegStoreStagePinReleasedByClientRestartDiscard(t *testing.T) {
	arch := newMemArchive()
	s, err := OpenSegStore(t.TempDir(), SegOptions{SegmentBytes: 256, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const c = record.ClientID(6)
	for i := 1; i <= 3; i++ {
		if err := s.StageCopy(c, rec(record.LSN(i), 2, fmt.Sprintf("staged-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 4; i <= 40; i++ {
		if err := s.Append(c, rec(record.LSN(i), 2, fmt.Sprintf("payload-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if ok, _ := s.CompactOnce(); ok {
		t.Fatal("compaction proceeded despite pending stage")
	}
	// The client restarts at epoch 3.
	if err := s.Append(c, rec(41, 3, "restarted")); err != nil {
		t.Fatal(err)
	}
	ok, err := s.CompactOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("the epoch advance did not release the compaction pin")
	}
	if err := s.InstallCopies(c, 2); !errors.Is(err, record.ErrEpochRegression) {
		t.Fatalf("InstallCopies of the dead stage = %v, want ErrEpochRegression", err)
	}
}

// TestSegStoreDeadStageDoesNotPinCompaction is the crashed-recovery
// scenario at scale, live and across a reopen: a stage at epoch 2 left
// behind while the client wrote on at epoch 3 must not keep the oldest
// segment — and so every segment after it — from being reclaimed.
func TestSegStoreDeadStageDoesNotPinCompaction(t *testing.T) {
	for _, reopen := range []bool{false, true} {
		t.Run(fmt.Sprintf("reopen=%v", reopen), func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256})
			if err != nil {
				t.Fatal(err)
			}
			defer func() { s.Close() }()
			const c = record.ClientID(7)
			for i := record.LSN(1); i <= 2; i++ {
				if err := s.Append(c, rec(i, 1, "before")); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.StageCopy(c, rec(3, 2, "crashed-recovery")); err != nil {
				t.Fatal(err)
			}
			for i := record.LSN(4); i <= 200; i++ {
				if err := s.Append(c, rec(i, 3, fmt.Sprintf("payload-%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Truncate(c, 190); err != nil {
				t.Fatal(err)
			}
			if reopen {
				s.Close()
				if s, err = OpenSegStore(dir, SegOptions{SegmentBytes: 256}); err != nil {
					t.Fatal(err)
				}
			}
			// Only the few segments holding LSNs 190–200 must stay.
			sealed := s.Usage().SealedSegments
			if got := compactAll(t, s); got < sealed-3 {
				t.Fatalf("reclaimed %d of %d sealed segments", got, sealed)
			}
			for i := record.LSN(190); i <= 200; i++ {
				if got, err := s.Read(c, i); err != nil || got.Epoch != 3 {
					t.Fatalf("Read(%d) = %v, %v", i, got, err)
				}
			}
		})
	}
}

func TestSegStoreCrashBetweenManifestAndDelete(t *testing.T) {
	dir := t.TempDir()
	arch := newMemArchive()
	s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	const c = record.ClientID(8)
	fillSeg(t, s, c, 40)

	// Arm the delete faultpoint: compaction advances the manifest but
	// "crashes" before removing the file.
	boom := errors.New("crash before delete")
	faultpoint.ArmErr(FPSegmentDelete, 1, boom)
	defer faultpoint.Reset()
	if _, err := s.CompactOnce(); !errors.Is(err, boom) {
		t.Fatalf("CompactOnce = %v, want armed crash", err)
	}
	files := len(segFiles(t, dir))
	s.Close()

	// The stray segment below the boundary must be discarded on open,
	// not replayed.
	faultpoint.Reset()
	s, err = OpenSegStore(dir, SegOptions{SegmentBytes: 256, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(segFiles(t, dir)); got != files-1 {
		t.Fatalf("stray segment not removed on open: %d files, had %d", got, files)
	}
	for i := record.LSN(1); i <= 40; i++ {
		if _, err := s.Read(c, i); err != nil {
			t.Fatalf("Read(%d) after stray cleanup: %v", i, err)
		}
	}
}

func TestSegStoreCrashBeforeManifestReArchivesIdempotently(t *testing.T) {
	dir := t.TempDir()
	arch := newMemArchive()
	s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	const c = record.ClientID(11)
	fillSeg(t, s, c, 40)

	boom := errors.New("crash before manifest")
	faultpoint.ArmErr(FPArchivePublish, 1, boom)
	defer faultpoint.Reset()
	if _, err := s.CompactOnce(); !errors.Is(err, boom) {
		t.Fatalf("CompactOnce = %v, want armed crash", err)
	}
	archivedOnce := arch.appends
	if archivedOnce == 0 {
		t.Fatal("archive write should precede the publish point")
	}
	s.Close()

	faultpoint.Reset()
	s, err = OpenSegStore(dir, SegOptions{SegmentBytes: 256, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Retry: the same records are offered again; idempotent archive
	// keeps one copy and the segment is reclaimed this time.
	if ok, err := s.CompactOnce(); err != nil || !ok {
		t.Fatalf("retried CompactOnce = (%v, %v)", ok, err)
	}
	for i := record.LSN(1); i <= 40; i++ {
		got, err := s.Read(c, i)
		if err != nil {
			t.Fatalf("Read(%d): %v", i, err)
		}
		if string(got.Data) != fmt.Sprintf("payload-%04d", i) {
			t.Fatalf("Read(%d) = %q", i, got.Data)
		}
	}
}

func TestSegStoreUsageAccounting(t *testing.T) {
	arch := newMemArchive()
	s, err := OpenSegStore(t.TempDir(), SegOptions{SegmentBytes: 256, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	u := s.Usage()
	if u.LiveBytes != 0 || u.Segments != 1 || u.SealedSegments != 0 {
		t.Fatalf("fresh store usage = %+v", u)
	}
	const c = record.ClientID(12)
	fillSeg(t, s, c, 40)
	u = s.Usage()
	if u.LiveBytes == 0 || u.SealedSegments == 0 || u.ReclaimableBytes == 0 {
		t.Fatalf("filled store usage = %+v", u)
	}
	for {
		ok, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	u = s.Usage()
	if u.ReclaimableBytes != 0 || u.ArchivedBytes == 0 {
		t.Fatalf("compacted store usage = %+v", u)
	}
}

// Force syncs the active segment without the store mutex while other
// clients append and seal segments under it; every record a Force
// covered must survive the reopen.
func TestSegStoreForceRacesSeals(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := record.ClientID(1); c <= clients; c++ {
		wg.Add(1)
		go func(c record.ClientID) {
			defer wg.Done()
			for i := record.LSN(1); i <= perClient; i++ {
				if err := s.Append(c, rec(i, 1, fmt.Sprintf("c%d-%d", c, i))); err != nil {
					errs <- err
					return
				}
				if err := s.Force(); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.Close()
	s, err = OpenSegStore(dir, SegOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for c := record.ClientID(1); c <= clients; c++ {
		recs, err := s.ReadRange(c, 1, perClient, 1<<20)
		if err != nil || len(recs) != perClient {
			t.Fatalf("client %d: %d records, %v", c, len(recs), err)
		}
		for _, r := range recs {
			if want := fmt.Sprintf("c%d-%d", c, r.LSN); string(r.Data) != want {
				t.Fatalf("client %d LSN %d = %q, want %q", c, r.LSN, r.Data, want)
			}
		}
	}
}
