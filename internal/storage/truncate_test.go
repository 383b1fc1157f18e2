package storage

import (
	"errors"
	"testing"

	"distlog/internal/record"
)

func fillClient(t *testing.T, s Store, c record.ClientID, n int) {
	t.Helper()
	for i := record.LSN(1); i <= record.LSN(n); i++ {
		if err := s.Append(c, rec(i, 1, "space-management-payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Force(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreTruncateBasics(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		const c = record.ClientID(1)
		fillClient(t, s, c, 20)
		if err := s.Truncate(c, 11); err != nil {
			t.Fatal(err)
		}
		// Records below 11 are gone.
		for i := record.LSN(1); i <= 10; i++ {
			if _, err := s.Read(c, i); !errors.Is(err, ErrNotStored) {
				t.Fatalf("Read(%d) after truncate: %v", i, err)
			}
		}
		// Records from 11 remain.
		for i := record.LSN(11); i <= 20; i++ {
			if _, err := s.Read(c, i); err != nil {
				t.Fatalf("Read(%d): %v", i, err)
			}
		}
		// The interval list is clipped.
		ivs := s.Intervals(c)
		if len(ivs) != 1 || ivs[0].Low != 11 || ivs[0].High != 20 {
			t.Fatalf("Intervals = %v", ivs)
		}
		// The high-water mark is retained: appends continue from 21 and
		// an old LSN is still rejected.
		if err := s.Append(c, rec(21, 1, "x")); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(c, rec(5, 1, "reuse")); !errors.Is(err, record.ErrLSNRegression) {
			t.Fatalf("LSN reuse after truncate: %v", err)
		}
	})
}

func TestStoreTruncateClampsToLastRecord(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		const c = record.ClientID(1)
		fillClient(t, s, c, 5)
		// Truncating beyond the end keeps the last record.
		if err := s.Truncate(c, 100); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(c, 5); err != nil {
			t.Fatalf("last record discarded: %v", err)
		}
		lsn, _ := s.LastKey(c)
		if lsn != 5 {
			t.Fatalf("LastKey = %d", lsn)
		}
	})
}

func TestStoreTruncateIdempotentAndMonotonic(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		const c = record.ClientID(1)
		fillClient(t, s, c, 10)
		if err := s.Truncate(c, 6); err != nil {
			t.Fatal(err)
		}
		// Re-truncating at or below the current point is a no-op.
		if err := s.Truncate(c, 6); err != nil {
			t.Fatal(err)
		}
		if err := s.Truncate(c, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(c, 6); err != nil {
			t.Fatalf("Read(6): %v", err)
		}
		if _, err := s.Read(c, 5); !errors.Is(err, ErrNotStored) {
			t.Fatalf("Read(5): %v", err)
		}
	})
}

func TestStoreTruncateUnknownClient(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		if err := s.Truncate(99, 5); !errors.Is(err, ErrNotStored) {
			t.Fatalf("Truncate unknown client: %v", err)
		}
	})
}

func TestStoreTruncatePerClientIsolation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		fillClient(t, s, 1, 10)
		fillClient(t, s, 2, 10)
		if err := s.Truncate(1, 8); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(2, 1); err != nil {
			t.Fatalf("client 2 affected by client 1's truncation: %v", err)
		}
	})
}

func TestDiskStoreTruncateSurvivesCrash(t *testing.T) {
	rig := newDiskRig(t, 512)
	s := rig.open(t)
	const c = record.ClientID(1)
	fillClient(t, s, c, 30)
	if err := s.Truncate(c, 21); err != nil {
		t.Fatal(err)
	}
	rig.crash(s)

	s2 := rig.open(t)
	defer s2.Close()
	if _, err := s2.Read(c, 20); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Read(20) after crash: truncation lost")
	}
	if _, err := s2.Read(c, 21); err != nil {
		t.Fatalf("Read(21) after crash: %v", err)
	}
	ivs := s2.Intervals(c)
	if len(ivs) != 1 || ivs[0].Low != 21 {
		t.Fatalf("Intervals = %v", ivs)
	}
}

func TestSegStoreCompactKeepsInstalledCopies(t *testing.T) {
	dir := t.TempDir()
	arch := newMemArchive()
	s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	const c = record.ClientID(1)
	fillClient(t, s, c, 10)
	if err := s.StageCopy(c, rec(10, 2, "copied")); err != nil {
		t.Fatal(err)
	}
	if err := s.InstallCopies(c, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(c, 6); err != nil {
		t.Fatal(err)
	}
	// Seal the segment holding the install so compaction can take it.
	if err := s.Append(c, rec(11, 2, "after-install")); err != nil {
		t.Fatal(err)
	}
	compactAll(t, s)
	if s.Boundary() == 0 {
		t.Fatal("nothing was compacted")
	}
	got, err := s.Read(c, 10)
	if err != nil || got.Epoch != 2 || string(got.Data) != "copied" {
		t.Fatalf("installed copy after compact: %v, %v", got, err)
	}
	s.Close()
	s2, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256, Archive: arch})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err = s2.Read(c, 10)
	if err != nil || got.Epoch != 2 || string(got.Data) != "copied" {
		t.Fatalf("installed copy after reopen: %v, %v", got, err)
	}
	if _, err := s2.Read(c, 5); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Read(5) below the floor after reopen: %v", err)
	}
}

// compactAll runs CompactOnce until it reclaims nothing more.
func compactAll(t *testing.T, s *SegStore) int {
	t.Helper()
	n := 0
	for {
		ok, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return n
		}
		n++
	}
}

// assertTruncationFloorHolds checks that nothing below floor is
// advertised or readable while records at or above it still are.
func assertTruncationFloorHolds(t *testing.T, s Store, c record.ClientID, floor, high record.LSN) {
	t.Helper()
	for _, iv := range s.Intervals(c) {
		if iv.Low < floor {
			t.Fatalf("interval list advertises truncated range: %v (floor %d)", s.Intervals(c), floor)
		}
	}
	for i := record.LSN(1); i < floor; i++ {
		if _, err := s.Read(c, i); !errors.Is(err, ErrNotStored) {
			t.Fatalf("Read(%d) below truncation floor %d: %v", i, floor, err)
		}
	}
	for i := floor; i <= high; i++ {
		if _, err := s.Read(c, i); err != nil {
			t.Fatalf("Read(%d) at/above floor %d: %v", i, floor, err)
		}
	}
}

// A recovery copy may legally revisit an LSN below the client's
// high-water mark (InstallCopies), including one the client already
// truncated away. Installing such a copy must not resurrect the
// truncated range: the interval list and the read path must keep
// agreeing that everything below the truncation point is gone —
// otherwise the server advertises intervals whose reads it then
// denies, and a recovery that trusts the interval list stalls on this
// server. Regression test for the truncated-then-rewritten bug: the
// interval list was extended for installed records below the floor.
func TestTruncatedRangeReinstallDoesNotResurrect(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		const c = record.ClientID(1)
		fillClient(t, s, c, 10)
		if err := s.Truncate(c, 8); err != nil {
			t.Fatal(err)
		}
		if err := s.StageCopy(c, rec(5, 2, "stale")); err != nil {
			t.Fatal(err)
		}
		if err := s.InstallCopies(c, 2); err != nil {
			t.Fatal(err)
		}
		assertTruncationFloorHolds(t, s, c, 8, 10)
	})
}

// The same scenario must hold across a crash: the stream replays the
// truncation point before the install, and the rebuilt index must not
// resurrect the stale range either.
func TestTruncatedRangeReinstallDoesNotResurrectAcrossCrash(t *testing.T) {
	t.Run("seg", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		const c = record.ClientID(1)
		fillClient(t, s, c, 10)
		if err := s.Truncate(c, 8); err != nil {
			t.Fatal(err)
		}
		if err := s.StageCopy(c, rec(5, 2, "stale")); err != nil {
			t.Fatal(err)
		}
		if err := s.InstallCopies(c, 2); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s2, err := OpenSegStore(dir, SegOptions{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		assertTruncationFloorHolds(t, s2, c, 8, 10)
	})
	t.Run("disk", func(t *testing.T) {
		rig := newDiskRig(t, 512)
		s := rig.open(t)
		const c = record.ClientID(1)
		fillClient(t, s, c, 10)
		if err := s.Truncate(c, 8); err != nil {
			t.Fatal(err)
		}
		if err := s.StageCopy(c, rec(5, 2, "stale")); err != nil {
			t.Fatal(err)
		}
		if err := s.InstallCopies(c, 2); err != nil {
			t.Fatal(err)
		}
		rig.crash(s)
		s2 := rig.open(t)
		defer s2.Close()
		assertTruncationFloorHolds(t, s2, c, 8, 10)
	})
}
