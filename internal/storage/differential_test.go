package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"distlog/internal/record"
	"distlog/internal/retention"
)

// TestDifferentialBackends drives the memory store and SegStore on both
// volumes (the modelled track disk, segment files) with the same random
// operation sequence and requires every observable — append outcomes,
// reads, range reads, interval lists, last keys — to agree exactly. The
// memory store shares only the index rules with SegStore and is simple
// enough to review by eye; agreement transfers that confidence to
// SegStore. On each volume a second store runs over a real archive tier
// and is compacted, retired and reopened as it goes, so its reads keep
// crossing the hot/cold boundary.
func TestDifferentialBackends(t *testing.T) {
	for _, seed := range []int64{3, 17, 2026} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			differentialRun(t, seed, 600)
		})
	}
}

func differentialRun(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))

	// Small tracks: 64-track segments of 8 KiB.
	ds := newTrackRig(t, trackGeometry(128, 0)).open(t)
	// Segments of a few frames each, so range reads cross extents.
	ss, err := OpenSegStore(filepath.Join(t.TempDir(), "seg"), SegOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	coldDir := t.TempDir()
	openCold := func() (*SegStore, *retention.Archive) {
		t.Helper()
		arch, err := retention.OpenArchive(filepath.Join(coldDir, "archive"), retention.ArchiveOptions{VolumeBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := OpenSegStore(filepath.Join(coldDir, "seg"), SegOptions{SegmentBytes: 256, Archive: arch})
		if err != nil {
			t.Fatal(err)
		}
		return cs, arch
	}
	cold, arch := openCold()
	defer func() { arch.Close() }()
	// The track volume's cold store: 4 KiB segments.
	rig := newTrackRig(t, trackGeometry(64, 0))
	openTrackCold := func() (*SegStore, *retention.Archive) {
		t.Helper()
		arch, err := retention.OpenArchive(filepath.Join(coldDir, "track-archive"), retention.ArchiveOptions{VolumeBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		rig.arch = arch
		return rig.open(t), arch
	}
	tcold, tarch := openTrackCold()
	defer func() { tarch.Close() }()
	stores := map[string]Store{"mem": NewMemStore(), "disk": ds, "seg": ss, "cold": cold, "tcold": tcold}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()

	// Per-client generator state so appends are mostly legal with
	// occasional deliberate violations.
	clients := []record.ClientID{1, 2, 3}
	nextLSN := map[record.ClientID]record.LSN{}
	epoch := map[record.ClientID]record.Epoch{}
	maxSeen := map[record.ClientID]record.LSN{}
	for _, c := range clients {
		nextLSN[c] = 1
		epoch[c] = 1
	}

	apply := func(op string, fn func(s Store) (string, error)) {
		t.Helper()
		var wantOut string
		var wantErr error
		first := true
		for _, name := range []string{"mem", "disk", "seg", "cold", "tcold"} {
			out, err := fn(stores[name])
			if first {
				wantOut, wantErr, first = out, err, false
				continue
			}
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s: %s error mismatch: mem=%v, %s=%v", op, name, wantErr, name, err)
			}
			if out != wantOut {
				t.Fatalf("%s: %s output %q, mem said %q", op, name, out, wantOut)
			}
		}
	}

	for step := 0; step < steps; step++ {
		c := clients[rng.Intn(len(clients))]
		switch r := rng.Float64(); {
		case r < 0.50: // append (sometimes illegal)
			rec := record.Record{
				LSN:     nextLSN[c],
				Epoch:   epoch[c],
				Present: rng.Float64() > 0.05,
				Data:    []byte(fmt.Sprintf("s%d-c%d-%d", seed, c, step)),
			}
			if !rec.Present {
				rec.Data = nil
			}
			switch bad := rng.Float64(); {
			case bad < 0.05 && nextLSN[c] > 2:
				rec.LSN = nextLSN[c] - 2 // regression: must be rejected everywhere
			case bad < 0.10:
				rec.LSN = nextLSN[c] + record.LSN(rng.Intn(3)) + 1 // gap: legal
			}
			apply("append", func(s Store) (string, error) {
				err := s.Append(c, rec)
				return fmt.Sprintf("%v", err == nil), err
			})
			if rec.LSN >= nextLSN[c] {
				nextLSN[c] = rec.LSN + 1
				if rec.LSN > maxSeen[c] {
					maxSeen[c] = rec.LSN
				}
			}
		case r < 0.60: // read a random LSN (stored or not)
			probe := record.LSN(rng.Intn(int(maxSeen[c]) + 3))
			apply("read", func(s Store) (string, error) {
				rec, err := s.Read(c, probe)
				if errors.Is(err, ErrNotStored) {
					return "not-stored", nil
				}
				if err != nil {
					return "", err
				}
				return rec.String() + string(rec.Data), nil
			})
		case r < 0.70: // range read: random bounds, either direction, random budget
			from := record.LSN(rng.Intn(int(maxSeen[c]) + 3))
			to := record.LSN(rng.Intn(int(maxSeen[c]) + 3))
			budget := []int{1, 60, 4096}[rng.Intn(3)]
			apply("readrange", func(s Store) (string, error) {
				recs, err := s.ReadRange(c, from, to, budget)
				if errors.Is(err, ErrNotStored) {
					return "not-stored", nil
				}
				if err != nil {
					return "", err
				}
				out := ""
				for _, rec := range recs {
					out += rec.String() + string(rec.Data) + ";"
				}
				return out, nil
			})
		case r < 0.80: // interval list
			apply("intervals", func(s Store) (string, error) {
				return fmt.Sprintf("%v", s.Intervals(c)), nil
			})
		case r < 0.85: // last key
			apply("lastkey", func(s Store) (string, error) {
				lsn, ep := s.LastKey(c)
				return fmt.Sprintf("%d/%d", lsn, ep), nil
			})
		case r < 0.92: // stage + install a recovery copy at a new epoch
			if maxSeen[c] == 0 {
				continue
			}
			epoch[c]++
			target := maxSeen[c]
			cp := record.Record{LSN: target, Epoch: epoch[c], Present: true, Data: []byte("copied")}
			marker := record.Record{LSN: target + 1, Epoch: epoch[c], Present: false}
			apply("stage+install", func(s Store) (string, error) {
				if err := s.StageCopy(c, cp); err != nil {
					return "", err
				}
				if err := s.StageCopy(c, marker); err != nil {
					return "", err
				}
				return "", s.InstallCopies(c, epoch[c])
			})
			if target+1 > maxSeen[c] {
				maxSeen[c] = target + 1
			}
			if target+1 >= nextLSN[c] {
				nextLSN[c] = target + 2
			}
		case r < 0.97: // force; the cold store then compacts, retires, or reboots
			apply("force", func(s Store) (string, error) { return "", s.Force() })
			switch rng.Intn(4) {
			case 0:
				compactAll(t, cold)
				retireAll(t, arch)
				compactAll(t, tcold)
				retireAll(t, tarch)
			case 1:
				if err := cold.Close(); err != nil {
					t.Fatal(err)
				}
				if err := arch.Close(); err != nil {
					t.Fatal(err)
				}
				cold, arch = openCold()
				stores["cold"] = cold
				rig.crash(tcold)
				if err := tarch.Close(); err != nil {
					t.Fatal(err)
				}
				tcold, tarch = openTrackCold()
				stores["tcold"] = tcold
			}
		default: // truncate
			if maxSeen[c] < 4 {
				continue
			}
			cut := record.LSN(rng.Intn(int(maxSeen[c]))) + 1
			apply("truncate", func(s Store) (string, error) { return "", s.Truncate(c, cut) })
		}
	}

	// Final full sweep: every LSN of every client agrees across
	// backends.
	for _, c := range clients {
		for lsn := record.LSN(1); lsn <= maxSeen[c]+1; lsn++ {
			lsn := lsn
			apply("sweep", func(s Store) (string, error) {
				rec, err := s.Read(c, lsn)
				if errors.Is(err, ErrNotStored) {
					return "not-stored", nil
				}
				if err != nil {
					return "", err
				}
				return rec.String() + string(rec.Data), nil
			})
		}
	}
}

// retireAll runs RetireOnce until it retires nothing more.
func retireAll(t *testing.T, arch *retention.Archive) {
	t.Helper()
	for {
		ok, err := arch.RetireOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
	}
}
