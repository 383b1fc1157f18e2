package appendforest

import (
	"os"
	"path/filepath"
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

func TestPersistentWriteOnceDiscipline(t *testing.T) {
	// The write-once property: appends never rewrite an existing node.
	store := &onceStore{}
	f, err := OpenPersistent(store)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 200; k++ {
		if err := f.Append(k, int64(k)); err != nil {
			t.Fatal(err)
		}
	}
	if store.rewrites != 0 {
		t.Fatalf("%d rewrites on write-once storage", store.rewrites)
	}
	if store.appends != 200 {
		t.Fatalf("appends = %d, want exactly one node per key", store.appends)
	}
}

type onceStore struct {
	MemNodeStore
	appends  int
	rewrites int
}

func (s *onceStore) AppendNode(buf []byte) (int64, error) {
	s.appends++
	return s.MemNodeStore.AppendNode(buf)
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

// readCountingStore counts node reads.
type readCountingStore struct {
	MemNodeStore
	reads int
}

func (s *readCountingStore) ReadNode(pos int64, buf []byte) error {
	s.reads++
	return s.MemNodeStore.ReadNode(pos, buf)
}

// TestPersistentScanReadsOneNodePerKey: a lookup of the key next to the
// one looked up last — a scan, in either direction — costs one node
// read, not a descent; and whatever order keys are looked up in, with
// appends in between, the neighbour shortcut never changes an answer.
func TestPersistentScanReadsOneNodePerKey(t *testing.T) {
	store := &readCountingStore{}
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
