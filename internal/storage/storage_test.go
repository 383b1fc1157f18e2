package storage

import (
	"errors"
	"fmt"
	"testing"

	"distlog/internal/disk"
	"distlog/internal/nvram"
	"distlog/internal/record"
)

// backends returns a named constructor for every Store implementation
// and medium shape; the conformance tests run against each.
func backends(t *testing.T) map[string]func(t *testing.T) Store {
	return map[string]func(t *testing.T) Store{
		"mem": func(t *testing.T) Store { return NewMemStore() },
		"disk": func(t *testing.T) Store {
			g := disk.DefaultGeometry()
			g.TrackSize = 512 // small tracks so tests cross boundaries
			d, err := disk.New(g)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewDiskStore(d, nvram.New(4*g.TrackSize))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		// One segment file that never seals in a test — the shape
		// logserverd runs by default — so extent reads span many frames.
		"file": func(t *testing.T) Store {
			s, err := OpenSegStore(t.TempDir(), SegOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		// Small segments so conformance tests cross seal boundaries.
		"seg": func(t *testing.T) Store {
			s, err := OpenSegStore(t.TempDir(), SegOptions{SegmentBytes: 256})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
}

func forEachBackend(t *testing.T, fn func(t *testing.T, s Store)) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			s := mk(t)
			defer s.Close()
			fn(t, s)
		})
	}
}

func rec(lsn record.LSN, epoch record.Epoch, data string) record.Record {
	return record.Record{LSN: lsn, Epoch: epoch, Present: true, Data: []byte(data)}
}

func notPresent(lsn record.LSN, epoch record.Epoch) record.Record {
	return record.Record{LSN: lsn, Epoch: epoch, Present: false}
}

func TestStoreAppendReadRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		const c = record.ClientID(7)
		for i := record.LSN(1); i <= 50; i++ {
			if err := s.Append(c, rec(i, 1, fmt.Sprintf("data-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Force(); err != nil {
			t.Fatal(err)
		}
		for i := record.LSN(1); i <= 50; i++ {
			got, err := s.Read(c, i)
			if err != nil {
				t.Fatalf("Read(%d): %v", i, err)
			}
			if got.LSN != i || got.Epoch != 1 || !got.Present || string(got.Data) != fmt.Sprintf("data-%d", i) {
				t.Fatalf("Read(%d) = %v", i, got)
			}
		}
		if _, err := s.Read(c, 51); !errors.Is(err, ErrNotStored) {
			t.Fatalf("Read beyond end: %v", err)
		}
		if _, err := s.Read(record.ClientID(99), 1); !errors.Is(err, ErrNotStored) {
			t.Fatalf("Read unknown client: %v", err)
		}
	})
}

func TestStoreSequencingEnforced(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		const c = record.ClientID(1)
		if err := s.Append(c, rec(5, 3, "a")); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(c, rec(4, 3, "b")); !errors.Is(err, record.ErrLSNRegression) {
			t.Fatalf("LSN regression: %v", err)
		}
		if err := s.Append(c, rec(6, 2, "b")); !errors.Is(err, record.ErrEpochRegression) {
			t.Fatalf("epoch regression: %v", err)
		}
		if err := s.Append(c, rec(5, 3, "b")); !errors.Is(err, record.ErrDuplicate) {
			t.Fatalf("duplicate: %v", err)
		}
		// Valid continuations.
		if err := s.Append(c, rec(6, 3, "ok")); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(c, rec(6, 4, "ok")); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStoreIntervalsFigure31Server1(t *testing.T) {
	// Build server 1 of Figure 3.1: intervals (<1,1>..<3,1>) and
	// (<3,3>..<9,3>) with record 4 not present.
	forEachBackend(t, func(t *testing.T, s Store) {
		const c = record.ClientID(1)
		for i := record.LSN(1); i <= 3; i++ {
			if err := s.Append(c, rec(i, 1, "x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Append(c, rec(3, 3, "x")); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(c, notPresent(4, 3)); err != nil {
			t.Fatal(err)
		}
		for i := record.LSN(5); i <= 9; i++ {
			if err := s.Append(c, rec(i, 3, "x")); err != nil {
				t.Fatal(err)
			}
		}
		ivs := s.Intervals(c)
		want := []record.Interval{
			{Epoch: 1, Low: 1, High: 3},
			{Epoch: 3, Low: 3, High: 9},
		}
		if len(ivs) != len(want) || ivs[0] != want[0] || ivs[1] != want[1] {
			t.Fatalf("Intervals = %v, want %v", ivs, want)
		}
		// Record 3 must come back at its highest epoch.
		got, err := s.Read(c, 3)
		if err != nil {
			t.Fatal(err)
		}
		if got.Epoch != 3 {
			t.Fatalf("Read(3).Epoch = %d, want 3", got.Epoch)
		}
		// Record 4 is stored and must be answered, marked not present.
		got, err = s.Read(c, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got.Present {
			t.Fatal("Read(4) returned present")
		}
	})
}

func TestStoreMultipleClientsInterleaved(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		clients := []record.ClientID{10, 20, 30}
		for i := record.LSN(1); i <= 30; i++ {
			for _, c := range clients {
				if err := s.Append(c, rec(i, 1, fmt.Sprintf("c%d-%d", c, i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		got := s.Clients()
		if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
			t.Fatalf("Clients = %v", got)
		}
		for _, c := range clients {
			for i := record.LSN(1); i <= 30; i++ {
				r, err := s.Read(c, i)
				if err != nil || string(r.Data) != fmt.Sprintf("c%d-%d", c, i) {
					t.Fatalf("Read(c=%d,%d) = %v, %v", c, i, r, err)
				}
			}
			lsn, epoch := s.LastKey(c)
			if lsn != 30 || epoch != 1 {
				t.Fatalf("LastKey(%d) = %d,%d", c, lsn, epoch)
			}
		}
	})
}

func TestStoreGapsCreateIntervals(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		const c = record.ClientID(1)
		for _, lsn := range []record.LSN{1, 2, 3, 7, 8, 20} {
			if err := s.Append(c, rec(lsn, 2, "x")); err != nil {
				t.Fatal(err)
			}
		}
		ivs := s.Intervals(c)
		want := []record.Interval{
			{Epoch: 2, Low: 1, High: 3},
			{Epoch: 2, Low: 7, High: 8},
			{Epoch: 2, Low: 20, High: 20},
		}
		if len(ivs) != 3 || ivs[0] != want[0] || ivs[1] != want[1] || ivs[2] != want[2] {
			t.Fatalf("Intervals = %v, want %v", ivs, want)
		}
		// LSNs inside gaps are not stored.
		for _, lsn := range []record.LSN{4, 5, 6, 9, 19, 21} {
			if _, err := s.Read(c, lsn); !errors.Is(err, ErrNotStored) {
				t.Fatalf("Read(%d): %v", lsn, err)
			}
		}
	})
}

func TestStoreStageAndInstall(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		const c = record.ClientID(1)
		for i := record.LSN(1); i <= 9; i++ {
			if err := s.Append(c, rec(i, 3, "old")); err != nil {
				t.Fatal(err)
			}
		}
		// Stage the recovery copies of Figure 3.3: record 9 re-copied at
		// epoch 4 and record 10 written not-present at epoch 4.
		if err := s.StageCopy(c, rec(9, 4, "copied")); err != nil {
			t.Fatal(err)
		}
		if err := s.StageCopy(c, notPresent(10, 4)); err != nil {
			t.Fatal(err)
		}
		// Until installed, reads see the old state.
		if got, _ := s.Read(c, 9); got.Epoch != 3 {
			t.Fatalf("pre-install Read(9).Epoch = %d", got.Epoch)
		}
		if _, err := s.Read(c, 10); !errors.Is(err, ErrNotStored) {
			t.Fatalf("pre-install Read(10): %v", err)
		}
		if err := s.InstallCopies(c, 4); err != nil {
			t.Fatal(err)
		}
		got, err := s.Read(c, 9)
		if err != nil || got.Epoch != 4 || string(got.Data) != "copied" {
			t.Fatalf("post-install Read(9) = %v, %v", got, err)
		}
		got, err = s.Read(c, 10)
		if err != nil || got.Present || got.Epoch != 4 {
			t.Fatalf("post-install Read(10) = %v, %v", got, err)
		}
		// Interval list now includes the epoch-4 sequence.
		ivs := s.Intervals(c)
		last := ivs[len(ivs)-1]
		if last.Epoch != 4 || last.Low != 9 || last.High != 10 {
			t.Fatalf("intervals after install: %v", ivs)
		}
		// Normal writes continue at the new epoch above the marker.
		if err := s.Append(c, rec(11, 4, "new")); err != nil {
			t.Fatal(err)
		}
	})
}

// An install names the range it must cover: a stage missing part of
// it is refused with nothing written, a range already installed at the
// epoch is a retransmission answered without writing, a range no
// stage could hold is refused without walking it, and an install
// naming more than one range is refused.
func TestStoreInstallRangeCheck(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		const c = record.ClientID(1)
		for i := record.LSN(1); i <= 9; i++ {
			if err := s.Append(c, rec(i, 3, "old")); err != nil {
				t.Fatal(err)
			}
		}
		want := Span{Low: 9, High: 10}
		if err := s.StageCopy(c, rec(9, 4, "copied")); err != nil {
			t.Fatal(err)
		}
		if err := s.InstallCopies(c, 4, want); !errors.Is(err, ErrNotStaged) {
			t.Fatalf("install ahead of copy 10 = %v, want ErrNotStaged", err)
		}
		if got, _ := s.Read(c, 9); got.Epoch != 3 {
			t.Fatalf("refused install changed Read(9): %v", got)
		}
		if _, epoch := s.LastKey(c); epoch != 3 {
			t.Fatalf("refused install moved the client to epoch %d", epoch)
		}
		if err := s.InstallCopies(c, 4, Span{Low: 1, High: ^record.LSN(0)}); !errors.Is(err, ErrNotStaged) {
			t.Fatalf("install of the whole LSN space = %v, want ErrNotStaged", err)
		}
		if err := s.StageCopy(c, notPresent(10, 4)); err != nil {
			t.Fatal(err)
		}
		if err := s.InstallCopies(c, 4, want, want); err == nil {
			t.Fatal("install naming two spans was accepted")
		}
		if err := s.InstallCopies(c, 4, want); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Read(c, 9); err != nil || got.Epoch != 4 {
			t.Fatalf("post-install Read(9) = %v, %v", got, err)
		}
		n := len(s.Intervals(c))
		if err := s.InstallCopies(c, 4, want); err != nil {
			t.Fatalf("retransmitted install = %v, want the idempotent ack", err)
		}
		if err := s.InstallCopies(c, 4, Span{Low: 8, High: 10}); !errors.Is(err, ErrNotStaged) {
			t.Fatalf("install of a range only partly installed = %v, want ErrNotStaged", err)
		}
		if got := len(s.Intervals(c)); got != n {
			t.Fatalf("answered installs changed the interval list: %d intervals, had %d", got, n)
		}
	})
}

func TestStoreInstallNothingStaged(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		if err := s.InstallCopies(1, 5); !errors.Is(err, ErrNoStagedCopies) {
			t.Fatalf("InstallCopies = %v", err)
		}
	})
}

func TestStoreStagedCopyRetryIdempotent(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		const c = record.ClientID(1)
		if err := s.Append(c, rec(1, 1, "x")); err != nil {
			t.Fatal(err)
		}
		// The client retries a CopyLog after a lost ack; the second
		// arrival supersedes the first.
		if err := s.StageCopy(c, rec(1, 2, "first")); err != nil {
			t.Fatal(err)
		}
		if err := s.StageCopy(c, rec(1, 2, "second")); err != nil {
			t.Fatal(err)
		}
		if err := s.InstallCopies(c, 2); err != nil {
			t.Fatal(err)
		}
		got, err := s.Read(c, 1)
		if err != nil || string(got.Data) != "second" {
			t.Fatalf("Read(1) = %v, %v", got, err)
		}
	})
}

// A copy staged at an epoch below the client's last could never
// install; every store refuses it up front.
func TestStoreDeadStageRefused(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		const c = record.ClientID(1)
		if err := s.Append(c, rec(1, 3, "x")); err != nil {
			t.Fatal(err)
		}
		if err := s.StageCopy(c, rec(1, 2, "dead")); !errors.Is(err, record.ErrEpochRegression) {
			t.Fatalf("StageCopy at epoch 2 after 3 = %v, want ErrEpochRegression", err)
		}
		if err := s.InstallCopies(c, 2); !errors.Is(err, record.ErrEpochRegression) {
			t.Fatalf("InstallCopies at epoch 2 after 3 = %v, want ErrEpochRegression", err)
		}
	})
}

func TestStoreZeroRejected(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		if err := s.Append(1, rec(0, 1, "x")); !errors.Is(err, record.ErrZero) {
			t.Fatalf("zero LSN: %v", err)
		}
		if err := s.StageCopy(1, rec(1, 0, "x")); !errors.Is(err, record.ErrZero) {
			t.Fatalf("zero epoch: %v", err)
		}
	})
}

func TestStoreClosed(t *testing.T) {
	forEachBackend(t, func(t *testing.T, s Store) {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(1, rec(1, 1, "x")); !errors.Is(err, ErrClosed) {
			t.Fatalf("Append after close: %v", err)
		}
		if err := s.Force(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Force after close: %v", err)
		}
		if _, err := s.Read(1, 1); !errors.Is(err, ErrClosed) {
			t.Fatalf("Read after close: %v", err)
		}
	})
}

func TestStoreLargeRecordsSpanTracks(t *testing.T) {
	// Records larger than a disk track must still round-trip (the
	// stream spans track boundaries).
	forEachBackend(t, func(t *testing.T, s Store) {
		const c = record.ClientID(1)
		big := make([]byte, 2000) // track size is 512 in the disk backend
		for i := range big {
			big[i] = byte(i)
		}
		if err := s.Append(c, record.Record{LSN: 1, Epoch: 1, Present: true, Data: big}); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(c, rec(2, 1, "small")); err != nil {
			t.Fatal(err)
		}
		got, err := s.Read(c, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Data) != len(big) {
			t.Fatalf("len = %d", len(got.Data))
		}
		for i := range big {
			if got.Data[i] != big[i] {
				t.Fatalf("byte %d differs", i)
			}
		}
	})
}
