package retention

import (
	"errors"
	"fmt"
	"testing"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
)

// TestArchiveDirSyncFailsClosed: a failed directory fsync is an entry
// that may not survive a crash, so the archive must not act as if it
// would. A volume whose creation could not be synced takes no frame; a
// manifest whose rename could not be synced leaves the durable floors
// where they were and retires nothing; a rewritten forest whose rename
// could not be synced keeps Sync failing until a directory sync
// succeeds.
func TestArchiveDirSyncFailsClosed(t *testing.T) {
	boom := errors.New("injected directory fsync failure")
	defer faultpoint.Reset()

	t.Run("volume-create", func(t *testing.T) {
		dir := t.TempDir()
		a, err := OpenArchive(dir, ArchiveOptions{VolumeBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		const c = record.ClientID(3)
		faultpoint.ArmErr(FPSyncDir, 1, boom)
		var failed record.LSN
		for i := record.LSN(1); i <= 20 && failed == 0; i++ {
			switch err := a.Archive(c, rec(i, 1, fmt.Sprintf("volume-record-%03d", i))); {
			case errors.Is(err, boom):
				failed = i
			case err != nil:
				t.Fatal(err)
			}
		}
		if failed == 0 {
			t.Fatal("no archive call reached a volume boundary")
		}
		if got, want := countVolFiles(t, dir), a.Volumes(); got != want {
			t.Fatalf("%d volume files after the failed create, archive uses %d", got, want)
		}
		if _, ok, _ := a.Lookup(c, failed); ok {
			t.Fatalf("record %d archived although its volume failed", failed)
		}
		// The next call retries the rotation and succeeds.
		if err := a.Archive(c, rec(failed, 1, "retried")); err != nil {
			t.Fatal(err)
		}
		if err := a.Sync(); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := a.Lookup(c, failed); !ok || err != nil {
			t.Fatalf("Lookup(%d) after the retried rotation = %v, %v", failed, ok, err)
		}
	})

	t.Run("manifest", func(t *testing.T) {
		dir := t.TempDir()
		a, err := OpenArchive(dir, ArchiveOptions{VolumeBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		const c = record.ClientID(9)
		for i := record.LSN(1); i <= 40; i++ {
			if err := a.Archive(c, rec(i, 1, fmt.Sprintf("volume-record-%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := a.Truncate(c, 30); err != nil {
			t.Fatal(err)
		}
		vols := countVolFiles(t, dir)
		faultpoint.ArmErr(FPSyncDir, 1, boom)
		if _, err := a.RetireOnce(); !errors.Is(err, boom) {
			t.Fatalf("RetireOnce = %v, want the directory fsync failure", err)
		}
		if got := a.durable[c]; got != 0 {
			t.Fatalf("durable floor %d after the failed manifest sync, want 0", got)
		}
		if got := countVolFiles(t, dir); got != vols || a.Retired() != 0 {
			t.Fatalf("%d volume files (%d retired) after the failed manifest sync, had %d", got, a.Retired(), vols)
		}
		// With the directory syncing again the floor becomes durable and
		// retirement proceeds.
		if _, err := a.RetireOnce(); err != nil {
			t.Fatal(err)
		}
		if got := a.durable[c]; got != 30 {
			t.Fatalf("durable floor %d after a clean pass, want 30", got)
		}
		for {
			ok, err := a.RetireOnce()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		if a.Retired() == 0 {
			t.Fatal("no volume retired below the durable floor")
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		a, err = OpenArchive(dir, ArchiveOptions{VolumeBytes: 128})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		for i := record.LSN(30); i <= 40; i++ {
			if _, ok, err := a.Lookup(c, i); !ok || err != nil {
				t.Fatalf("Lookup(%d) after reopen = %v, %v", i, ok, err)
			}
		}
	})

	t.Run("forest-rewrite", func(t *testing.T) {
		dir := t.TempDir()
		a, err := OpenArchive(dir, ArchiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		const c = record.ClientID(5)
		for i := record.LSN(1); i <= 40; i++ {
			if err := a.Archive(c, rec(i, 1, fmt.Sprintf("r%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Truncate(c, 30); err != nil {
			t.Fatal(err)
		}
		if err := a.Sync(); err != nil {
			t.Fatal(err)
		}
		// Most of the forest is now dead: the next pass rewrites it.
		faultpoint.ArmErr(FPSyncDir, 1, boom)
		if _, err := a.RetireOnce(); !errors.Is(err, boom) {
			t.Fatalf("RetireOnce = %v, want the directory fsync failure", err)
		}
		if err := a.Archive(c, rec(41, 1, "r41")); err != nil {
			t.Fatal(err)
		}
		faultpoint.ArmErr(FPSyncDir, 1, boom)
		if err := a.Sync(); !errors.Is(err, boom) {
			t.Fatalf("Sync with the rewrite's rename unsynced = %v, want the directory fsync failure", err)
		}
		if err := a.Sync(); err != nil {
			t.Fatalf("Sync once the directory syncs again: %v", err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		a, err = OpenArchive(dir, ArchiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		for i := record.LSN(30); i <= 41; i++ {
			if _, ok, err := a.Lookup(c, i); !ok || err != nil {
				t.Fatalf("Lookup(%d) after reopen = %v, %v", i, ok, err)
			}
		}
	})
}
