package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"distlog/internal/fsutil"
)

// volume is the device under a SegStore: where its segments and its
// manifest live. Everything above it — sealing, replay, reads,
// compaction — is one code path for every volume. A segment is named by
// the stream offset of its first byte.
type volume interface {
	// list returns the bases of the segments on the volume, ascending.
	list() ([]int64, error)
	// open opens the segment at base and returns its durable size.
	open(base int64) (segFile, int64, error)
	// create makes an empty segment at base, the volume's new active
	// segment; the one it follows is sealed and takes no more bytes.
	create(base int64) (segFile, error)
	remove(base int64) error
	// loadManifest returns the stored manifest, or nil for none.
	loadManifest() ([]byte, error)
	// storeManifest durably replaces the manifest.
	storeManifest(buf []byte) error
}

// segFile is one segment's bytes. Writes only ever append. Truncate
// cuts a torn tail off the active segment at open, and fails where
// nothing can be torn.
type segFile interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// dirVolume keeps each segment in its own file, seg-%020d.log, and the
// manifest in MANIFEST, all in one directory.
type dirVolume struct{ dir string }

const segManifestName = "MANIFEST"

func segFileName(base int64) string {
	return fmt.Sprintf("seg-%020d.log", base)
}

func parseSegBase(name string) (int64, bool) {
	base, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".log"), 10, 64)
	return base, err == nil && base >= 0 && segFileName(base) == name
}

func (v dirVolume) path(base int64) string { return filepath.Join(v.dir, segFileName(base)) }

func (v dirVolume) list() ([]int64, error) {
	names, err := os.ReadDir(v.dir)
	if err != nil {
		return nil, err
	}
	var bases []int64
	for _, de := range names {
		if base, ok := parseSegBase(de.Name()); ok {
			bases = append(bases, base)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}

func (v dirVolume) open(base int64) (segFile, int64, error) {
	f, err := os.OpenFile(v.path(base), os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, info.Size(), nil
}

// create makes the file, and syncs the directory before the segment
// takes a record: an entry that may not survive a crash would take
// records acknowledged stable and then vanish with the file.
func (v dirVolume) create(base int64) (segFile, error) {
	f, err := os.OpenFile(v.path(base), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := fsutil.SyncDir(v.dir, FPSyncDir); err != nil {
		f.Close()
		os.Remove(v.path(base))
		return nil, err
	}
	return f, nil
}

func (v dirVolume) remove(base int64) error {
	if err := os.Remove(v.path(base)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

func (v dirVolume) loadManifest() ([]byte, error) {
	buf, err := os.ReadFile(filepath.Join(v.dir, segManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return buf, err
}

// storeManifest writes a temporary file, syncs it, renames it into
// place and syncs the directory.
func (v dirVolume) storeManifest(buf []byte) error {
	path := filepath.Join(v.dir, segManifestName)
	tmp := path + ".tmp"
	if err := fsutil.WriteFileSync(tmp, buf); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return fsutil.SyncDir(v.dir, FPSyncDir)
}
