// Package fsutil holds the durable-file helpers shared by the stores
// that keep files and directories on disk: a write that is fsynced
// before it is reported, and a directory fsync that fails closed.
package fsutil

import (
	"errors"
	"os"
	"syscall"

	"distlog/internal/faultpoint"
)

// WriteFileSync writes data to path and fsyncs it before closing.
func WriteFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SyncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry is durable. A filesystem that refuses directory fsync
// outright (EINVAL, ENOTSUP) is tolerated — it offers no such guarantee
// to wait for; any other failure is returned, because the entry may not
// survive a crash. fp names the caller's error faultpoint, hit (via
// faultpoint.HitErr) before the sync.
func SyncDir(dir, fp string) error {
	if err := faultpoint.HitErr(fp); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}
