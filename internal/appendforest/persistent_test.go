package appendforest

import (
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func stores(t *testing.T) map[string]func(t *testing.T) NodeStore {
	return map[string]func(t *testing.T) NodeStore{
		"mem": func(t *testing.T) NodeStore { return &MemNodeStore{} },
		"file": func(t *testing.T) NodeStore {
			s, err := OpenFileNodeStore(filepath.Join(t.TempDir(), "nodes"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		},
	}
}

func TestPersistentAppendLookup(t *testing.T) {
	for name, mk := range stores(t) {
		t.Run(name, func(t *testing.T) {
			f, err := OpenPersistent(mk(t))
			if err != nil {
				t.Fatal(err)
			}
			const n = 500
			for k := uint64(1); k <= n; k++ {
				if err := f.Append(k*2, int64(k*100)); err != nil {
					t.Fatal(err)
				}
			}
			if f.Len() != n {
				t.Fatalf("Len = %d", f.Len())
			}
			for k := uint64(1); k <= n; k++ {
				v, ok, err := f.Lookup(k * 2)
				if err != nil || !ok || v != int64(k*100) {
					t.Fatalf("Lookup(%d) = %d,%v,%v", k*2, v, ok, err)
				}
				if _, ok, _ := f.Lookup(k*2 - 1); ok {
					t.Fatalf("Lookup(%d) found a missing key", k*2-1)
				}
			}
			if _, ok, _ := f.Lookup(n*2 + 2); ok {
				t.Fatal("lookup beyond max found")
			}
		})
	}
}

func TestPersistentRejectsNonIncreasing(t *testing.T) {
	f, err := OpenPersistent(&MemNodeStore{})
	if err != nil {
		t.Fatal(err)
	}
	f.Append(5, 0)
	if err := f.Append(5, 0); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := f.Append(4, 0); err == nil {
		t.Fatal("regression accepted")
	}
}

// TestPersistentWriteOnceDiscipline pins Section 4.3's cost:
// every append is exactly one node write — the NodeStore has no way to
// rewrite one — and, with the root stack's heights and minima kept in
// memory, no node read.
func TestPersistentWriteOnceDiscipline(t *testing.T) {
	store := &countingStore{}
	f, err := OpenPersistent(store)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 1000; k++ {
		store.reads, store.appends = 0, 0
		if err := f.Append(3*k, int64(k)); err != nil {
			t.Fatal(err)
		}
		if store.reads != 0 || store.appends != 1 {
			t.Fatalf("append %d: %d node reads, %d node writes; want 0 and 1", k, store.reads, store.appends)
		}
	}
	// The nodes are the ones the read-back merge rule expects: a reopen
	// replays and validates them, and every key resolves.
	g, err := OpenPersistent(store)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 1000; k++ {
		if v, ok, err := g.Lookup(3 * k); err != nil || !ok || v != int64(k) {
			t.Fatalf("Lookup(%d) after reopen = %d,%v,%v", 3*k, v, ok, err)
		}
	}
}

// countingStore counts node reads and appends.
type countingStore struct {
	MemNodeStore
	reads   int
	appends int
}

func (s *countingStore) AppendNode(buf []byte) (int64, error) {
	s.appends++
	return s.MemNodeStore.AppendNode(buf)
}

func (s *countingStore) ReadNode(pos int64, buf []byte) error {
	s.reads++
	return s.MemNodeStore.ReadNode(pos, buf)
}

func TestPersistentRecoveryFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nodes")
	store, err := OpenFileNodeStore(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := OpenPersistent(store)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 300; k++ {
		if err := f.Append(k*3, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	store.Sync()
	store.Close()

	store2, err := OpenFileNodeStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	f2, err := OpenPersistent(store2)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Len() != 300 {
		t.Fatalf("Len after reopen = %d", f2.Len())
	}
	for k := uint64(1); k <= 300; k++ {
		v, ok, err := f2.Lookup(k * 3)
		if err != nil || !ok || v != int64(k) {
			t.Fatalf("Lookup(%d) after reopen = %d,%v,%v", k*3, v, ok, err)
		}
	}
	// Appends continue where they left off.
	if err := f2.Append(1000, 42); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := f2.Lookup(1000)
	if !ok || v != 42 {
		t.Fatalf("Lookup(1000) = %d,%v", v, ok)
	}
}

func TestPersistentTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nodes")
	store, err := OpenFileNodeStore(path)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := OpenPersistent(store)
	for k := uint64(1); k <= 10; k++ {
		f.Append(k, int64(k))
	}
	store.Close()
	// Crash mid-node-write: a partial node at the tail.
	file, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	file.Write(make([]byte, NodeSize/2))
	file.Close()

	store2, err := OpenFileNodeStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	f2, err := OpenPersistent(store2)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Len() != 10 {
		t.Fatalf("Len = %d after torn tail", f2.Len())
	}
	for k := uint64(1); k <= 10; k++ {
		if _, ok, _ := f2.Lookup(k); !ok {
			t.Fatalf("Lookup(%d) lost", k)
		}
	}
}

// TestPersistentMatchesInMemory cross-checks the persistent forest
// against the in-memory implementation over the same key sequence.
func TestPersistentMatchesInMemory(t *testing.T) {
	var mem Forest[int64]
	pf, err := OpenPersistent(&MemNodeStore{})
	if err != nil {
		t.Fatal(err)
	}
	key := uint64(0)
	for i := 0; i < 1000; i++ {
		key += 1 + uint64(i%7)
		if err := mem.Append(key, int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := pf.Append(key, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for probe := uint64(0); probe <= key+2; probe++ {
		mv, mok := mem.Lookup(probe)
		pv, pok, err := pf.Lookup(probe)
		if err != nil {
			t.Fatal(err)
		}
		if mok != pok || (mok && mv != pv) {
			t.Fatalf("Lookup(%d): mem %d,%v vs persistent %d,%v", probe, mv, mok, pv, pok)
		}
	}
}

// TestPersistentScanReadsOneNodePerKey: a lookup of the key next to the
// one looked up last — a scan, in either direction — costs one node
// read, not a descent; and whatever order keys are looked up in, with
// appends in between, the neighbour shortcut never changes an answer.
func TestPersistentScanReadsOneNodePerKey(t *testing.T) {
	store := &countingStore{}
	var mem Forest[int64]
	pf, err := OpenPersistent(store)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4096
	appendKey := func(k uint64) {
		t.Helper()
		if err := mem.Append(k, int64(k)*3); err != nil {
			t.Fatal(err)
		}
		if err := pf.Append(k, int64(k)*3); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= n; k++ {
		appendKey(2 * k) // even keys: every odd probe is a miss
	}
	check := func(probe uint64) {
		t.Helper()
		mv, mok := mem.Lookup(probe)
		pv, pok, err := pf.Lookup(probe)
		if err != nil || mok != pok || (mok && mv != pv) {
			t.Fatalf("Lookup(%d): mem %d,%v vs persistent %d,%v (%v)", probe, mv, mok, pv, pok, err)
		}
	}

	check(2) // position the scan
	store.reads = 0
	for k := uint64(2); k <= n; k++ {
		check(2 * k)
	}
	if store.reads != n-1 {
		t.Fatalf("ascending scan of %d keys read %d nodes, want one each", n-1, store.reads)
	}
	store.reads = 0
	for k := uint64(n - 1); k >= 1; k-- {
		check(2 * k)
	}
	if store.reads != n-1 {
		t.Fatalf("descending scan of %d keys read %d nodes, want one each", n-1, store.reads)
	}

	// Any order, hits and misses, appends in between.
	seed := uint64(12345)
	next := uint64(2*n + 2)
	for i := 0; i < 5000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		switch seed >> 62 {
		case 0:
			appendKey(next)
			next += 2
		case 1:
			check(seed >> 33 % (next + 4)) // random probe
		default:
			check(seed>>33%8 + 2*(seed>>40%n)) // near an existing key
		}
	}
}

func BenchmarkPersistentLookupFile(b *testing.B) {
	store, err := OpenFileNodeStore(filepath.Join(b.TempDir(), "nodes"))
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	f, err := OpenPersistent(store)
	if err != nil {
		b.Fatal(err)
	}
	const n = 1 << 16
	for k := uint64(1); k <= n; k++ {
		if err := f.Append(k, int64(k)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := f.Lookup(uint64(i%n) + 1); !ok || err != nil {
			b.Fatal("missing key")
		}
	}
}

// TestPersistentSeekGE checks SeekGE against a plain search of the key
// sequence — dense runs, gaps, probes below, between and above the
// keys — and that it never reads more than a binary search would.
func TestPersistentSeekGE(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	store := &countingStore{}
	pf, err := OpenPersistent(store)
	if err != nil {
		t.Fatal(err)
	}
	var keys []uint64
	key := uint64(100)
	for i := 0; i < 5000; i++ {
		if rng.Intn(4) == 0 {
			key += uint64(rng.Intn(50)) // a gap
		}
		key++
		keys = append(keys, key)
		if err := pf.Append(key, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	bound := bits.Len(uint(len(keys))) + 1
	for i := 0; i < 3000; i++ {
		probe := uint64(rng.Int63n(int64(key + 200)))
		want := int64(sort.Search(len(keys), func(i int) bool { return keys[i] >= probe }))
		store.reads = 0
		got, err := pf.SeekGE(probe)
		if err != nil || got != want {
			t.Fatalf("SeekGE(%d) = %d, %v; want %d", probe, got, err, want)
		}
		if store.reads > bound {
			t.Fatalf("SeekGE(%d) read %d nodes, want at most %d", probe, store.reads, bound)
		}
	}
	// Past the last gap the keys run dense: one read finds the answer.
	for i := 1; i <= 100; i++ {
		if err := pf.Append(key+uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	store.reads = 0
	if got, _ := pf.SeekGE(key + 50); got != int64(len(keys)+49) || store.reads != 1 {
		t.Fatalf("SeekGE in the dense tail = %d after %d reads, want %d after one", got, store.reads, len(keys)+49)
	}
}

// TestFileNodeStoreWriteBehind: appended nodes stay in memory — the
// file does not grow — until Sync, reads of held nodes (alone, or in a
// run that starts on the file) come from memory, and a store holding
// more than its bound writes the excess itself.
func TestFileNodeStoreWriteBehind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nodes")
	store, err := OpenFileNodeStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pf, err := OpenPersistent(store)
	if err != nil {
		t.Fatal(err)
	}
	fileNodes := func() int64 {
		t.Helper()
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return info.Size() / NodeSize
	}
	for k := uint64(1); k <= 100; k++ {
		pf.Append(k, int64(k))
	}
	if n := fileNodes(); n != 0 {
		t.Fatalf("%d nodes on the file before Sync, want none", n)
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	for k := uint64(101); k <= 150; k++ {
		pf.Append(k, int64(k))
	}
	if n := fileNodes(); n != 100 {
		t.Fatalf("%d nodes on the file, want the 100 synced", n)
	}
	var got []uint64
	if err := pf.Scan(90, 120, func(key uint64, _ int64) error {
		got = append(got, key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 || got[0] != 91 || got[29] != 120 {
		t.Fatalf("Scan across the file/memory seam = %v", got)
	}
	for k := uint64(151); int64(k)*NodeSize <= 2*writeBehindBytes; k++ {
		pf.Append(k, int64(k))
	}
	if n := fileNodes(); n*NodeSize < writeBehindBytes {
		t.Fatalf("only %d nodes on the file after appending past the bound", n)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, err := OpenFileNodeStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	pf2, err := OpenPersistent(store2)
	if err != nil {
		t.Fatal(err)
	}
	if pf2.Len() != pf.Len() {
		t.Fatalf("reopened %d nodes, wrote %d", pf2.Len(), pf.Len())
	}
}

// TestOpenPersistentRejectsMalformed: a node log whose nodes are not
// what the append rule writes fails to open instead of yielding a
// forest a descent could loop in.
func TestOpenPersistentRejectsMalformed(t *testing.T) {
	store := &MemNodeStore{}
	pf, _ := OpenPersistent(store)
	for k := uint64(1); k <= 7; k++ {
		pf.Append(k, int64(k))
	}
	// Node 2 joined nodes 0 and 1; point its left son at itself.
	nd := decodePNode(store.nodes[2])
	nd.left = 2
	nd.encode(store.nodes[2])
	if _, err := OpenPersistent(store); err == nil {
		t.Fatal("a node pointing at itself opened")
	}
}

// FuzzOpenPersistent feeds arbitrary node-log bytes to the replay. It
// must fail cleanly or yield a forest in which every node's key
// resolves to its payload.
func FuzzOpenPersistent(f *testing.F) {
	for _, n := range []int{0, 1, 2, 3, 7, 20} {
		store := &MemNodeStore{}
		pf, _ := OpenPersistent(store)
		for k := 1; k <= n; k++ {
			pf.Append(uint64(k*2), int64(k))
		}
		var log []byte
		for _, nd := range store.nodes {
			log = append(log, nd...)
		}
		f.Add(log)
		if len(log) > 0 {
			bad := append([]byte(nil), log...)
			bad[len(bad)-1] ^= 0x01
			f.Add(bad)
		}
	}
	f.Fuzz(func(t *testing.T, log []byte) {
		store := &MemNodeStore{}
		for len(log) >= NodeSize {
			store.AppendNode(log[:NodeSize])
			log = log[NodeSize:]
		}
		pf, err := OpenPersistent(store)
		if err != nil {
			return
		}
		if err := pf.Scan(0, pf.Len(), func(key uint64, payload int64) error {
			got, ok, err := pf.Lookup(key)
			if err != nil || !ok || got != payload {
				t.Fatalf("Lookup(%d) = %d,%v,%v, want %d", key, got, ok, err, payload)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := pf.SeekGE(pf.MaxKey() / 2); err != nil {
			t.Fatal(err)
		}
	})
}
