package retention

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"distlog/internal/appendforest"
	"distlog/internal/record"
)

// TestArchiveReadRangeMatchesLookup drives randomized archive histories
// — interleaved clients with dense and gapped LSNs, epoch supersedes
// through the overlay, advancing floors, volume rotation, retirement of
// dead volumes and forest prefixes, syncs and reopens — and requires
// every ReadRange, in either direction and under any budget, to equal
// the Lookups of the same LSNs.
func TestArchiveReadRangeMatchesLookup(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { rangeVsLookup(t, seed) })
	}
}

func rangeVsLookup(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	opts := ArchiveOptions{VolumeBytes: 1024}
	a, err := OpenArchive(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { a.Close() }()

	clients := []record.ClientID{1, 2, 3}
	next := map[record.ClientID]record.LSN{1: 1, 2: 1, 3: 1}
	epoch := map[record.ClientID]record.Epoch{1: 1, 2: 1, 3: 1}
	floor := map[record.ClientID]record.LSN{}
	data := func(c record.ClientID, lsn record.LSN, e record.Epoch) []byte {
		n := rng.Intn(60)
		if rng.Intn(100) == 0 {
			n = 5000 // larger than a volume and a read window
		}
		return []byte(fmt.Sprintf("c%d-l%d-e%d-%s", c, lsn, e, strings.Repeat("x", n)))
	}
	compare := func(c record.ClientID, from, to record.LSN, budget int) {
		t.Helper()
		got, err := a.ReadRange(c, from, to, budget)
		if err != nil {
			t.Fatalf("ReadRange(%d, %d, %d, %d): %v", c, from, to, budget, err)
		}
		var want []record.Record
		size := 0
		for lsn := from; ; {
			rec, ok, err := a.Lookup(c, lsn)
			if err != nil {
				t.Fatalf("Lookup(%d, %d): %v", c, lsn, err)
			}
			if !ok {
				break
			}
			want = append(want, rec)
			size += rec.EncodedSize()
			if lsn == to || size >= budget {
				break
			}
			if to < from {
				lsn--
			} else {
				lsn++
			}
		}
		if len(got) != len(want) {
			t.Fatalf("ReadRange(%d, %d, %d, %d) returned %d records, Lookup finds %d", c, from, to, budget, len(got), len(want))
		}
		for i := range got {
			if got[i].LSN != want[i].LSN || got[i].Epoch != want[i].Epoch || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("ReadRange(%d, %d, %d, %d)[%d] = %v, Lookup %v", c, from, to, budget, i, got[i], want[i])
			}
		}
	}
	probe := func(c record.ClientID) record.LSN { return record.LSN(rng.Int63n(int64(next[c])+2)) + 1 }

	for step := 0; step < 1500; step++ {
		c := clients[rng.Intn(len(clients))]
		switch r := rng.Float64(); {
		case r < 0.50: // archive the next LSN, sometimes after a gap
			lsn := next[c]
			if rng.Intn(8) == 0 {
				lsn += record.LSN(rng.Intn(4)) + 1
			}
			if err := a.Archive(c, record.Record{LSN: lsn, Epoch: epoch[c], Present: rng.Intn(20) != 0, Data: data(c, lsn, epoch[c])}); err != nil {
				t.Fatal(err)
			}
			next[c] = lsn + 1
		case r < 0.58: // a recovery copy supersedes an archived LSN
			if next[c] <= floor[c]+1 {
				continue
			}
			epoch[c]++
			lsn := floor[c] + record.LSN(rng.Int63n(int64(next[c]-floor[c]))) + 1
			if lsn >= next[c] {
				lsn = next[c] - 1
			}
			if err := a.Archive(c, record.Record{LSN: lsn, Epoch: epoch[c], Present: true, Data: data(c, lsn, epoch[c])}); err != nil {
				t.Fatal(err)
			}
		case r < 0.61: // the floor advances
			f := probe(c)
			if f > floor[c] {
				floor[c] = f
			}
			if err := a.Truncate(c, f); err != nil {
				t.Fatal(err)
			}
		case r < 0.64: // sync and retire what the durable floors allow
			if err := a.Sync(); err != nil {
				t.Fatal(err)
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
		case r < 0.66: // restart
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if a, err = OpenArchive(dir, opts); err != nil {
				t.Fatal(err)
			}
		default:
			compare(c, probe(c), probe(c), []int{0, 1, 200, 4000, 1 << 20}[rng.Intn(5)])
		}
	}
	for _, c := range clients {
		compare(c, 1, next[c], 1<<30)
		compare(c, next[c], 1, 1<<30)
	}
	if a.Retired() == 0 && a.Boundary() == 0 {
		t.Log("no volume retired in this history")
	}
}

// countingNodes counts the node reads a forest issues through it:
// calls (each one pread on a file) and nodes.
type countingNodes struct {
	nodeLog
	reads, nodes int
}

func (c *countingNodes) ReadNode(pos int64, buf []byte) error {
	c.reads++
	c.nodes += len(buf) / appendforest.NodeSize
	return c.nodeLog.ReadNode(pos, buf)
}

// TestRetireOnceSearchesForTheFloor pins the retirement pass's cost on
// a long-lived client's index: a 100k-node forest whose first 60k keys
// fell below the floor is measured by one search and rewritten with
// bulk reads of the live suffix — never read node by node (one pread
// each, under the archive lock, was 38% of a restart's CPU).
func TestRetireOnceSearchesForTheFloor(t *testing.T) {
	a, err := OpenArchive(t.TempDir(), ArchiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const c, n, dead = record.ClientID(1), 100_000, 60_000
	rng := rand.New(rand.NewSource(1))
	var keys []record.LSN
	for lsn := record.LSN(0); len(keys) < n; {
		lsn += record.LSN(rng.Intn(3)) + 1 // gapped, so the search cannot short-cut
		keys = append(keys, lsn)
		if err := a.Archive(c, record.Record{LSN: lsn, Epoch: 1, Present: true, Data: []byte{byte(lsn)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Truncate(c, keys[dead]); err != nil {
		t.Fatal(err)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	cf := a.forests[c]
	counted := &countingNodes{nodeLog: cf.store}
	cf.store = counted
	if cf.forest, err = appendforest.OpenPersistent(counted); err != nil {
		t.Fatal(err)
	}
	counted.reads, counted.nodes = 0, 0

	ok, err := a.RetireOnce()
	if err != nil || !ok {
		t.Fatalf("RetireOnce = %v, %v; want the dead majority compacted", ok, err)
	}
	bound := 2*bits.Len(uint(n)) + 8
	if counted.reads > bound {
		t.Fatalf("RetireOnce issued %d node reads, want at most %d", counted.reads, bound)
	}
	if counted.nodes > n-dead+bound {
		t.Fatalf("RetireOnce read %d nodes for a %d-node live suffix", counted.nodes, n-dead)
	}
	if got := a.forests[c].forest.Len(); got != n-dead {
		t.Fatalf("rewritten forest holds %d nodes, want %d", got, n-dead)
	}
	for _, i := range []int{dead, dead + 1, (dead + n) / 2, n - 1} {
		if _, ok, err := a.Lookup(c, keys[i]); !ok || err != nil {
			t.Fatalf("Lookup(%d) after the rewrite = %v, %v", keys[i], ok, err)
		}
	}
}

// snapshot copies an archive directory's files as they are on disk
// right now — what a crash of the process would leave behind.
func snapshot(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		src, err := os.Open(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		dst, err := os.Create(filepath.Join(out, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(dst, src); err != nil {
			t.Fatal(err)
		}
		src.Close()
		dst.Close()
	}
	return out
}

// TestArchiveCrashAfterUnsyncedWrites reopens crash images of an
// archive taken while it held unsynced writes — some still in memory,
// some written out but not fsynced, across a volume rotation and
// overlay supersedes. Each image must open with every forest node and
// overlay entry naming a frame its volume holds, serve everything
// synced before, and converge when the lost records are archived again
// (the retried compaction pass). An image whose volume lost bytes its
// forest names — a power cut reordering writes — opens with the forest
// cut back to the surviving frames.
func TestArchiveCrashAfterUnsyncedWrites(t *testing.T) {
	dir := t.TempDir()
	opts := ArchiveOptions{VolumeBytes: 256 << 10}
	a, err := OpenArchive(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	type item struct {
		c   record.ClientID
		rec record.Record
	}
	var history []item
	archive := func(c record.ClientID, lsn record.LSN, e record.Epoch) {
		t.Helper()
		r := record.Record{LSN: lsn, Epoch: e, Present: true, Data: []byte(fmt.Sprintf("c%d-l%d-e%d-%040d", c, lsn, e, lsn))}
		if err := a.Archive(c, r); err != nil {
			t.Fatal(err)
		}
		history = append(history, item{c, r})
	}
	for lsn := record.LSN(1); lsn <= 500; lsn++ {
		archive(1, lsn, 1)
		archive(2, lsn, 1)
	}
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	synced := len(history)
	var images []string
	for lsn := record.LSN(501); lsn <= 12000; lsn++ {
		archive(1, lsn, 1)
		archive(2, lsn, 1)
		if lsn%3000 == 0 {
			images = append(images, snapshot(t, dir))
		}
	}
	for lsn := record.LSN(1); lsn <= 10; lsn++ {
		archive(1, lsn, 2) // supersedes, through the overlay
	}
	// Written out, not fsynced.
	a.mu.Lock()
	err = a.flushLocked()
	a.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	images = append(images, snapshot(t, dir))
	if a.Volumes() < 2 {
		t.Fatalf("history spans %d volume(s), want a rotation", a.Volumes())
	}

	// The power-cut image: the newest volume loses its second half.
	torn := snapshot(t, dir)
	vols, _ := filepath.Glob(filepath.Join(torn, "vol-*.log"))
	last := vols[len(vols)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()/2); err != nil {
		t.Fatal(err)
	}
	images = append(images, torn)

	for i, img := range images {
		b, err := OpenArchive(img, opts)
		if err != nil {
			t.Fatalf("image %d: open: %v", i, err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		rep, err := VerifyArchiveDir(img)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Issues) > 0 {
			t.Fatalf("image %d: %d issues after reopen, first: %s", i, len(rep.Issues), rep.Issues[0])
		}
		if b, err = OpenArchive(img, opts); err != nil {
			t.Fatal(err)
		}
		for j, it := range history {
			got, ok, err := b.Lookup(it.c, it.rec.LSN)
			if err != nil {
				t.Fatalf("image %d: Lookup(%d, %d): %v", i, it.c, it.rec.LSN, err)
			}
			if j < synced && !ok {
				t.Fatalf("image %d: synced record (%d, %d) lost", i, it.c, it.rec.LSN)
			}
			if ok && got.Epoch == it.rec.Epoch && !bytes.Equal(got.Data, it.rec.Data) {
				t.Fatalf("image %d: Lookup(%d, %d) = %q", i, it.c, it.rec.LSN, got.Data)
			}
		}
		// The retried compaction offers every record again.
		for _, it := range history {
			if err := b.Archive(it.c, it.rec); err != nil {
				t.Fatalf("image %d: re-archive: %v", i, err)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if b, err = OpenArchive(img, opts); err != nil {
			t.Fatal(err)
		}
		for _, it := range history {
			got, ok, err := b.Lookup(it.c, it.rec.LSN)
			if err != nil || !ok || got.Epoch < it.rec.Epoch {
				t.Fatalf("image %d: after the retry Lookup(%d, %d) = %v, %v, %v", i, it.c, it.rec.LSN, got, ok, err)
			}
		}
		b.Close()
	}
}

// FuzzDecodeDataFrame feeds arbitrary bytes to the archive's frame
// decoder — what a range read decodes out of a volume window. It must
// fail cleanly, never panic or claim more bytes than it was given.
func FuzzDecodeDataFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeDataFrame(nil, 7, rec(1, 1, "archived")))
	f.Add(encodeDataFrame(nil, 1<<40, record.Record{LSN: 9, Epoch: 3}))
	f.Add(encodeDataFrame(nil, 2, record.Record{LSN: 5, Epoch: 2, Present: true, Data: []byte("dep"),
		Deps: []record.StreamDep{{Stream: 1, High: 4}}}))
	two := encodeDataFrame(encodeDataFrame(nil, 3, rec(1, 1, "a")), 3, rec(2, 1, "b"))
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Fuzz(func(t *testing.T, buf []byte) {
		fr, n, err := decodeDataFrame(buf)
		if err != nil {
			return
		}
		if n < dataFrameOverhead+8 || n > len(buf) {
			t.Fatalf("decoded a %d-byte frame out of %d bytes", n, len(buf))
		}
		if int64(n) < dataFrameLen(fr.rec) {
			t.Fatalf("record needs %d bytes of frame, decoded %d", dataFrameLen(fr.rec), n)
		}
	})
}
