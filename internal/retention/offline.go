package retention

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"distlog/internal/appendforest"
	"distlog/internal/record"
)

// VerifyIssue is one consistency violation found by VerifyArchiveDir.
type VerifyIssue struct {
	File   string
	Detail string
}

func (i VerifyIssue) String() string { return i.File + ": " + i.Detail }

// VerifyReport summarizes an offline walk of an archive directory.
// Issues are violations of the archive's invariants; torn tails on the
// active volume or overlay and stray volumes below the boundary are
// legal crash leftovers (open discards them) and are counted, not
// flagged.
type VerifyReport struct {
	Dir      string
	Boundary int64
	Floors   map[record.ClientID]record.LSN

	Volumes       int
	SealedVolumes int
	StrayVolumes  int
	Frames        int
	VolumeBytes   int64
	TornTailBytes int64

	ForestFiles    int
	ForestNodes    int64
	OverlayEntries int

	Issues []VerifyIssue
}

type frameInfo struct {
	client record.ClientID
	lsn    record.LSN
	epoch  record.Epoch
}

// VerifyArchiveDir walks an archive directory offline — without
// opening it as an Archive — checking frame checksums, volume chain
// continuity, and that every forest and overlay entry resolves to a
// matching frame (or lies retired below both the boundary and its
// client's floor). It never mutates the directory.
func VerifyArchiveDir(dir string) (*VerifyReport, error) {
	boundary, floors, err := readArchiveManifest(filepath.Join(dir, archiveManifestName))
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{Dir: dir, Boundary: boundary, Floors: floors}
	issue := func(file, format string, args ...any) {
		rep.Issues = append(rep.Issues, VerifyIssue{File: file, Detail: fmt.Sprintf(format, args...)})
	}

	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var bases []int64
	for _, de := range des {
		base, ok := parseVolBase(de.Name())
		if !ok {
			continue
		}
		if base < boundary {
			rep.StrayVolumes++
			continue
		}
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })

	// Walk every frame, building the offset map forest and overlay
	// entries must resolve through.
	frames := make(map[int64]frameInfo)
	next := boundary
	for i, base := range bases {
		name := volName(base)
		rep.Volumes++
		last := i == len(bases)-1
		if !last {
			rep.SealedVolumes++
		}
		if base != next {
			issue(name, "volume chain gap: want base %d", next)
		}
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		off := int64(0)
		for off < int64(len(buf)) {
			fr, n, err := decodeDataFrame(buf[off:])
			if err != nil {
				if last {
					rep.TornTailBytes += int64(len(buf)) - off
				} else {
					issue(name, "bad frame at %d in sealed volume: %v", off, err)
				}
				break
			}
			frames[base+off] = frameInfo{client: fr.c, lsn: fr.rec.LSN, epoch: fr.rec.Epoch}
			rep.Frames++
			off += int64(n)
		}
		rep.VolumeBytes += off
		next = base + off
	}

	for _, de := range des {
		var id uint64
		if n, _ := fmt.Sscanf(de.Name(), "forest-%d.af", &id); n != 1 {
			continue
		}
		c := record.ClientID(id)
		rep.ForestFiles++
		store, err := appendforest.OpenFileNodeStore(filepath.Join(dir, de.Name()))
		if err != nil {
			issue(de.Name(), "open: %v", err)
			continue
		}
		forest, err := appendforest.OpenPersistent(store)
		if err != nil {
			store.Close()
			issue(de.Name(), "replay: %v", err)
			continue
		}
		rep.ForestNodes += forest.Len()
		err = forest.Scan(0, forest.Len(), func(key uint64, off int64) error {
			lsn := record.LSN(key)
			if off < boundary {
				// The frame retired; legal only if the LSN can never be
				// read again.
				if lsn >= floors[c] {
					issue(de.Name(), "key %d points at retired offset %d but is at or above the floor %d", key, off, floors[c])
				}
				return nil
			}
			fi, ok := frames[off]
			if !ok {
				issue(de.Name(), "key %d points at offset %d where no frame starts", key, off)
				return nil
			}
			if fi.client != c || fi.lsn != lsn {
				issue(de.Name(), "key %d points at frame (%d,%d) at offset %d", key, fi.client, fi.lsn, off)
			}
			return nil
		})
		store.Close()
		if err != nil {
			issue(de.Name(), "scan: %v", err)
		}
	}

	obuf, err := os.ReadFile(filepath.Join(dir, archiveOverlayName))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	off := int64(0)
	for off+overlayFrameSize <= int64(len(obuf)) {
		fr := obuf[off : off+overlayFrameSize]
		if crc32.ChecksumIEEE(fr[:overlayFrameSize-4]) != binary.BigEndian.Uint32(fr[overlayFrameSize-4:]) {
			rep.TornTailBytes += int64(len(obuf)) - off
			break
		}
		c := record.ClientID(binary.BigEndian.Uint64(fr[0:]))
		lsn := record.LSN(binary.BigEndian.Uint64(fr[8:]))
		ref := int64(binary.BigEndian.Uint64(fr[24:]))
		rep.OverlayEntries++
		if ref < boundary {
			if lsn >= floors[c] {
				issue(archiveOverlayName, "entry (%d,%d) points at retired offset %d but is at or above the floor %d", c, lsn, ref, floors[c])
			}
		} else if fi, ok := frames[ref]; !ok {
			issue(archiveOverlayName, "entry (%d,%d) points at offset %d where no frame starts", c, lsn, ref)
		} else if fi.client != c || fi.lsn != lsn {
			issue(archiveOverlayName, "entry (%d,%d) points at frame (%d,%d)", c, lsn, fi.client, fi.lsn)
		}
		off += overlayFrameSize
	}
	return rep, nil
}

// Render writes the report in logctl's human format.
func (r *VerifyReport) Render(w io.Writer) {
	fmt.Fprintf(w, "archive:         %s\n", r.Dir)
	fmt.Fprintf(w, "boundary:        %d\n", r.Boundary)
	fmt.Fprintf(w, "volumes:         %d (%d sealed, %d stray, %d bytes)\n", r.Volumes, r.SealedVolumes, r.StrayVolumes, r.VolumeBytes)
	fmt.Fprintf(w, "frames:          %d\n", r.Frames)
	fmt.Fprintf(w, "forests:         %d files, %d nodes\n", r.ForestFiles, r.ForestNodes)
	fmt.Fprintf(w, "overlay entries: %d\n", r.OverlayEntries)
	if r.TornTailBytes > 0 {
		fmt.Fprintf(w, "torn tail bytes: %d (discarded on next open)\n", r.TornTailBytes)
	}
	clients := make([]record.ClientID, 0, len(r.Floors))
	for c := range r.Floors {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	for _, c := range clients {
		fmt.Fprintf(w, "floor client %d:  %d\n", c, r.Floors[c])
	}
	if len(r.Issues) == 0 {
		fmt.Fprintf(w, "ok\n")
		return
	}
	for _, i := range r.Issues {
		fmt.Fprintf(w, "ISSUE %s\n", i)
	}
}

// ExportArchiveDir dumps the frames of one volume (by base offset) or,
// with base < 0, of every volume, oldest first — an offline record
// dump that needs no running server.
func ExportArchiveDir(w io.Writer, dir string, base int64) error {
	des, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var bases []int64
	for _, de := range des {
		b, ok := parseVolBase(de.Name())
		if !ok {
			continue
		}
		if base >= 0 && b != base {
			continue
		}
		bases = append(bases, b)
	}
	if len(bases) == 0 {
		if base >= 0 {
			return fmt.Errorf("retention: no volume with base %d in %s", base, dir)
		}
		return fmt.Errorf("retention: no volumes in %s", dir)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, b := range bases {
		name := volName(b)
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s (%d bytes)\n", name, len(buf))
		off := int64(0)
		for off < int64(len(buf)) {
			fr, n, err := decodeDataFrame(buf[off:])
			if err != nil {
				fmt.Fprintf(w, "  off %d: torn tail (%d bytes)\n", b+off, int64(len(buf))-off)
				break
			}
			fmt.Fprintf(w, "  off %d: client %d lsn %d epoch %d present %t data %q\n",
				b+off, fr.c, fr.rec.LSN, fr.rec.Epoch, fr.rec.Present, fr.rec.Data)
			off += int64(n)
		}
	}
	return nil
}
