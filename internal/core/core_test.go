package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"distlog/internal/record"
	"distlog/internal/server"
	"distlog/internal/storage"
	"distlog/internal/transport"
)

// cluster is a test rig: M log servers over MemStores on a memnet.
type cluster struct {
	t       *testing.T
	net     *transport.Network
	names   []string
	stores  map[string]storage.Store
	epochs  map[string]*server.MemEpochHost
	servers map[string]*server.Server
}

func newCluster(t *testing.T, names ...string) *cluster {
	t.Helper()
	c := &cluster{
		t:       t,
		net:     transport.NewNetwork(42),
		names:   names,
		stores:  make(map[string]storage.Store),
		epochs:  make(map[string]*server.MemEpochHost),
		servers: make(map[string]*server.Server),
	}
	for _, name := range names {
		c.stores[name] = storage.NewMemStore()
		c.epochs[name] = server.NewMemEpochHost()
		c.start(name)
	}
	t.Cleanup(c.shutdown)
	return c
}

// start launches (or relaunches) the named server over its existing
// store and epoch host — a node reboot keeps its stable storage.
func (c *cluster) start(name string) {
	c.t.Helper()
	srv := server.New(server.Config{
		Name:     name,
		Store:    c.stores[name],
		Endpoint: c.net.Endpoint(name),
		Epochs:   c.epochs[name],
	})
	srv.Start()
	c.servers[name] = srv
}

// stop halts the named server (node down: it stops answering).
func (c *cluster) stop(name string) {
	c.t.Helper()
	if srv := c.servers[name]; srv != nil {
		srv.Stop()
		delete(c.servers, name)
	}
}

func (c *cluster) shutdown() {
	for name, srv := range c.servers {
		srv.Stop()
		delete(c.servers, name)
	}
}

// seedEpoch sets every server-hosted epoch representative for the
// client to v, as if the generator had already issued v.
func (c *cluster) seedEpoch(client record.ClientID, v uint64) {
	c.t.Helper()
	for _, name := range c.names {
		if err := c.epochs[name].Rep(client).WriteState(v); err != nil {
			c.t.Fatal(err)
		}
	}
}

// openClient opens a replicated log over the cluster. Each call uses a
// fresh client endpoint registration (a restart of the same node).
func (c *cluster) openClient(id record.ClientID, n int, mutate ...func(*Config)) (*ReplicatedLog, error) {
	cfg := Config{
		ClientID:    id,
		Servers:     append([]string(nil), c.names...),
		N:           n,
		Delta:       4,
		Endpoint:    c.net.Endpoint(fmt.Sprintf("client-%d", id)),
		CallTimeout: 100 * time.Millisecond,
		Retries:     2,
	}
	for _, m := range mutate {
		m(&cfg)
	}
	return Open(cfg)
}

func mustOpen(t *testing.T, c *cluster, id record.ClientID, n int, mutate ...func(*Config)) *ReplicatedLog {
	t.Helper()
	l, err := c.openClient(id, n, mutate...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestWriteForceReadRoundTrip(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()

	base := l.EndOfLog()
	var lsns []record.LSN
	for i := 0; i < 20; i++ {
		lsn, err := l.WriteLog([]byte(fmt.Sprintf("record-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// Consecutive calls return increasing, consecutive LSNs.
	for i, lsn := range lsns {
		if lsn != base+record.LSN(i+1) {
			t.Fatalf("lsn[%d] = %d, want %d", i, lsn, base+record.LSN(i+1))
		}
	}
	for i, lsn := range lsns {
		data, err := l.ReadLog(lsn)
		if err != nil {
			t.Fatalf("ReadLog(%d): %v", lsn, err)
		}
		if string(data) != fmt.Sprintf("record-%d", i) {
			t.Fatalf("ReadLog(%d) = %q", lsn, data)
		}
	}
	if l.EndOfLog() != lsns[len(lsns)-1] {
		t.Fatalf("EndOfLog = %d", l.EndOfLog())
	}
}

func TestRecordsReplicatedOnNServers(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()

	lsn, err := l.ForceLog([]byte("replicated"))
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the write set (2 servers) stores the record.
	count := 0
	for _, name := range c.names {
		if _, err := c.stores[name].Read(1, lsn); err == nil {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("record on %d servers, want 2", count)
	}
}

func TestReadBeyondEndAndNotPresent(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()

	if _, err := l.ReadLog(l.EndOfLog() + 1); !errors.Is(err, ErrBeyondEnd) {
		t.Fatalf("beyond end: %v", err)
	}
	if _, err := l.ReadLog(0); !errors.Is(err, ErrBeyondEnd) {
		t.Fatalf("LSN 0: %v", err)
	}
	// The δ not-present markers written by initialization (LSNs 1..δ on
	// a fresh log) read as not present.
	if _, err := l.ReadLog(1); !errors.Is(err, ErrNotPresent) {
		t.Fatalf("marker: %v", err)
	}
}

func TestEpochIncreasesAcrossRestarts(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l1 := mustOpen(t, c, 1, 2)
	e1 := l1.Epoch()
	l1.Close()
	l2 := mustOpen(t, c, 1, 2)
	defer l2.Close()
	if l2.Epoch() <= e1 {
		t.Fatalf("epoch %d after restart, was %d", l2.Epoch(), e1)
	}
}

func TestRestartRecoversForcedRecords(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l1 := mustOpen(t, c, 1, 2)
	var lsns []record.LSN
	for i := 0; i < 10; i++ {
		lsn, err := l1.WriteLog([]byte(fmt.Sprintf("durable-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l1.Force(); err != nil {
		t.Fatal(err)
	}
	l1.Close() // crash

	l2 := mustOpen(t, c, 1, 2)
	defer l2.Close()
	for i, lsn := range lsns {
		data, err := l2.ReadLog(lsn)
		if err != nil {
			t.Fatalf("ReadLog(%d) after restart: %v", lsn, err)
		}
		if string(data) != fmt.Sprintf("durable-%d", i) {
			t.Fatalf("ReadLog(%d) = %q", lsn, data)
		}
	}
	// EndOfLog moved past the old end by δ markers.
	if l2.EndOfLog() <= lsns[len(lsns)-1] {
		t.Fatalf("EndOfLog = %d", l2.EndOfLog())
	}
}

func TestUnforcedRecordsConsistentlyAbsentAfterCrash(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l1 := mustOpen(t, c, 1, 2)
	forced, err := l1.ForceLog([]byte("forced"))
	if err != nil {
		t.Fatal(err)
	}
	// Written but never forced: may be partially on servers.
	unforcedLSN, err := l1.WriteLog([]byte("unforced"))
	if err != nil {
		t.Fatal(err)
	}
	l1.Close() // crash before Force

	l2 := mustOpen(t, c, 1, 2)
	defer l2.Close()
	if _, err := l2.ReadLog(forced); err != nil {
		t.Fatalf("forced record lost: %v", err)
	}
	// The unforced record must read as not-present (superseded by the
	// recovery's new-epoch rewrite) — and must stay that way across yet
	// another restart ("all reports are consistent").
	if _, err := l2.ReadLog(unforcedLSN); !errors.Is(err, ErrNotPresent) {
		t.Fatalf("unforced record: %v", err)
	}
	l2.Close()
	l3 := mustOpen(t, c, 1, 2)
	defer l3.Close()
	if _, err := l3.ReadLog(unforcedLSN); !errors.Is(err, ErrNotPresent) {
		t.Fatalf("unforced record after second restart: %v", err)
	}
}

// TestFigure31Reads seeds the three stores exactly as Figure 3.1 and
// verifies the client reads the replicated log the paper defines:
// records (<1,1>..<2,1>), (<3,3>), (<5,3>..<9,3>), with 4 not present.
func TestFigure31Reads(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	seed := func(name string, recs ...record.Record) {
		for _, r := range recs {
			if err := c.stores[name].Append(1, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	pr := func(lsn record.LSN, epoch record.Epoch) record.Record {
		return record.Record{LSN: lsn, Epoch: epoch, Present: true, Data: []byte(fmt.Sprintf("<%d,%d>", lsn, epoch))}
	}
	np := func(lsn record.LSN, epoch record.Epoch) record.Record {
		return record.Record{LSN: lsn, Epoch: epoch, Present: false}
	}
	seed("s1", pr(1, 1), pr(2, 1), pr(3, 1), pr(3, 3), np(4, 3), pr(5, 3), pr(6, 3), pr(7, 3), pr(8, 3), pr(9, 3))
	seed("s2", pr(1, 1), pr(2, 1), pr(3, 1), pr(6, 3), pr(7, 3))
	seed("s3", pr(3, 3), np(4, 3), pr(5, 3), pr(8, 3), pr(9, 3))
	c.seedEpoch(1, 3)

	l := mustOpen(t, c, 1, 2, func(cfg *Config) { cfg.Delta = 1 })
	defer l.Close()
	if l.Epoch() != 4 {
		t.Fatalf("epoch = %d, want 4", l.Epoch())
	}
	// Every record of the replicated log reads correctly; LSN 3 returns
	// the epoch-3 copy.
	wantEpoch := map[record.LSN]record.Epoch{1: 1, 2: 1, 3: 3, 5: 3, 6: 3, 7: 3, 8: 3}
	for lsn, epoch := range wantEpoch {
		rec, err := l.ReadRecord(lsn)
		if err != nil {
			t.Fatalf("ReadRecord(%d): %v", lsn, err)
		}
		if rec.Epoch != epoch || !rec.Present {
			t.Fatalf("ReadRecord(%d) = %v, want epoch %d", lsn, rec, epoch)
		}
		if string(rec.Data) != fmt.Sprintf("<%d,%d>", lsn, epoch) {
			t.Fatalf("ReadRecord(%d) data = %q", lsn, rec.Data)
		}
	}
	// Record 4 is not present.
	if _, err := l.ReadLog(4); !errors.Is(err, ErrNotPresent) {
		t.Fatalf("ReadLog(4): %v", err)
	}
	// Record 9 was the doubtful tail record (δ=1): it was re-copied at
	// epoch 4 and must still read with its data.
	rec, err := l.ReadRecord(9)
	if err != nil || !rec.Present || string(rec.Data) != "<9,3>" {
		t.Fatalf("ReadRecord(9) = %v, %v", rec, err)
	}
	if rec.Epoch != 4 {
		t.Fatalf("ReadRecord(9).Epoch = %d, want 4 (recovery copy)", rec.Epoch)
	}
	// LSN 10 is the not-present marker; 11 is the first fresh LSN.
	if _, err := l.ReadLog(10); !errors.Is(err, ErrNotPresent) {
		t.Fatalf("ReadLog(10): %v", err)
	}
	if l.EndOfLog() != 10 {
		t.Fatalf("EndOfLog = %d, want 10", l.EndOfLog())
	}
	lsn, err := l.WriteLog([]byte("fresh"))
	if err != nil || lsn != 11 {
		t.Fatalf("first fresh write: %d, %v", lsn, err)
	}
}

// TestFigure32PartialWriteRecovery seeds the Figure 3.2 state (record
// 10 on server 3 only) and runs recovery with server 3 down, which is
// the paper's Figure 3.3 walkthrough: the client must install record 9
// at epoch 4 and a not-present record 10 at epoch 4 on servers 1 and
// 2, so the partially written record 10 can never resurface.
func TestFigure32PartialWriteRecovery(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	seed := func(name string, recs ...record.Record) {
		for _, r := range recs {
			if err := c.stores[name].Append(1, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	pr := func(lsn record.LSN, epoch record.Epoch) record.Record {
		return record.Record{LSN: lsn, Epoch: epoch, Present: true, Data: []byte(fmt.Sprintf("<%d,%d>", lsn, epoch))}
	}
	np := func(lsn record.LSN, epoch record.Epoch) record.Record {
		return record.Record{LSN: lsn, Epoch: epoch, Present: false}
	}
	seed("s1", pr(1, 1), pr(2, 1), pr(3, 1), pr(3, 3), np(4, 3), pr(5, 3), pr(6, 3), pr(7, 3), pr(8, 3), pr(9, 3))
	seed("s2", pr(1, 1), pr(2, 1), pr(3, 1), pr(6, 3), pr(7, 3))
	seed("s3", pr(3, 3), np(4, 3), pr(5, 3), pr(8, 3), pr(9, 3), pr(10, 3)) // 10 partially written
	c.seedEpoch(1, 3)
	c.stop("s3")

	l := mustOpen(t, c, 1, 2, func(cfg *Config) { cfg.Delta = 1 })
	if l.Epoch() != 4 {
		t.Fatalf("epoch = %d, want 4", l.Epoch())
	}
	// The merged view (servers 1, 2) ends at 9; record 10 was partially
	// written and must not be part of the log.
	if _, err := l.ReadLog(10); !errors.Is(err, ErrNotPresent) {
		t.Fatalf("ReadLog(10): %v", err)
	}
	// Server-side state matches Figure 3.3: servers 1 and 2 hold
	// <9,4> present and <10,4> not present.
	for _, name := range []string{"s1", "s2"} {
		r9, err := c.stores[name].Read(1, 9)
		if err != nil || r9.Epoch != 4 || !r9.Present {
			t.Fatalf("%s record 9 = %v, %v", name, r9, err)
		}
		r10, err := c.stores[name].Read(1, 10)
		if err != nil || r10.Epoch != 4 || r10.Present {
			t.Fatalf("%s record 10 = %v, %v", name, r10, err)
		}
	}
	l.Close()

	// Server 3 comes back; a later restart merges all three lists. The
	// epoch-4 not-present marker must shadow server 3's stale epoch-3
	// copy of record 10 — reports stay consistent.
	c.start("s3")
	l2 := mustOpen(t, c, 1, 2, func(cfg *Config) { cfg.Delta = 1 })
	defer l2.Close()
	if _, err := l2.ReadLog(10); !errors.Is(err, ErrNotPresent) {
		t.Fatalf("ReadLog(10) after server 3 returns: %v", err)
	}
	rec, err := l2.ReadRecord(9)
	if err != nil || !rec.Present || string(rec.Data) != "<9,3>" {
		t.Fatalf("ReadRecord(9) = %v, %v", rec, err)
	}
}

func TestWriteFailoverToSpareServer(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()

	if _, err := l.ForceLog([]byte("before")); err != nil {
		t.Fatal(err)
	}
	ws := l.WriteSet()
	c.stop(ws[1]) // kill one write-set member

	lsn, err := l.ForceLog([]byte("after-failover"))
	if err != nil {
		t.Fatalf("ForceLog after server failure: %v", err)
	}
	if got := l.Stats().Failovers; got == 0 {
		t.Fatal("no failover recorded")
	}
	// The record is on two live servers.
	count := 0
	for _, name := range c.names {
		if name == ws[1] {
			continue
		}
		if _, err := c.stores[name].Read(1, lsn); err == nil {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("record on %d live servers, want 2", count)
	}
	if data, err := l.ReadLog(lsn); err != nil || string(data) != "after-failover" {
		t.Fatalf("ReadLog = %q, %v", data, err)
	}
}

func TestWriteUnavailableWhenTooManyServersDown(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()
	c.stop("s2")
	c.stop("s3")
	// Only one server remains: N=2 cannot be satisfied.
	_, err := l.ForceLog([]byte("doomed"))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ForceLog = %v, want ErrUnavailable", err)
	}
}

func TestInitQuorumFailure(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	// M-N+1 = 2 interval lists needed; leave only one server up.
	c.stop("s2")
	c.stop("s3")
	_, err := c.openClient(1, 2)
	if !errors.Is(err, ErrInitQuorum) {
		t.Fatalf("Open = %v, want ErrInitQuorum", err)
	}
}

func TestInitSucceedsWithOneServerDown(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l1 := mustOpen(t, c, 1, 2)
	if _, err := l1.ForceLog([]byte("x")); err != nil {
		t.Fatal(err)
	}
	l1.Close()
	// Any single server may be down: M-N+1 = 2 of 3 suffice.
	c.stop("s1")
	l2 := mustOpen(t, c, 1, 2)
	defer l2.Close()
}

func TestReadFailsOverToOtherHolder(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()
	lsn, err := l.ForceLog([]byte("resilient"))
	if err != nil {
		t.Fatal(err)
	}
	ws := l.WriteSet()
	c.stop(ws[0]) // first holder down; read must use the second
	data, err := l.ReadLog(lsn)
	if err != nil || string(data) != "resilient" {
		t.Fatalf("ReadLog = %q, %v", data, err)
	}
}

func TestLossyNetwork(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()
	// 15% loss + occasional duplication on every link.
	c.net.SetFaults(transport.Faults{DropProb: 0.15, DupProb: 0.1})
	var lsns []record.LSN
	for i := 0; i < 30; i++ {
		lsn, err := l.WriteLog([]byte(fmt.Sprintf("lossy-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		if i%5 == 4 {
			if err := l.Force(); err != nil {
				t.Fatalf("Force under loss: %v", err)
			}
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	c.net.SetFaults(transport.Faults{})
	for i, lsn := range lsns {
		data, err := l.ReadLog(lsn)
		if err != nil || string(data) != fmt.Sprintf("lossy-%d", i) {
			t.Fatalf("ReadLog(%d) = %q, %v", lsn, data, err)
		}
	}
	// Duplicated packets must not duplicate records in any store.
	for _, name := range l.WriteSet() {
		ivs := c.stores[name].Intervals(1)
		for i := 1; i < len(ivs); i++ {
			if ivs[i].Low <= ivs[i-1].High && ivs[i].Epoch == ivs[i-1].Epoch {
				t.Fatalf("%s has overlapping intervals: %v", name, ivs)
			}
		}
	}
}

func TestCorruptedPacketsRejected(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()
	c.net.SetFaults(transport.Faults{CorruptProb: 0.2})
	for i := 0; i < 10; i++ {
		if _, err := l.WriteLog([]byte("checked")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatalf("Force under corruption: %v", err)
	}
}

func TestDeltaBoundsOutstanding(t *testing.T) {
	// The δ invariant — never more than Delta records outstanding — is
	// kept by background release: the stream pushes the buffer toward
	// stability and writers wait for it to drop under δ, without
	// synchronous forces.
	t.Run("streamed", func(t *testing.T) {
		c := newCluster(t, "s1", "s2", "s3")
		l := mustOpen(t, c, 1, 2, func(cfg *Config) { cfg.Delta = 4 })
		defer l.Close()
		for i := 0; i < 20; i++ {
			if _, err := l.WriteLog([]byte("bounded")); err != nil {
				t.Fatal(err)
			}
			l.mu.Lock()
			n := len(l.outstanding)
			l.mu.Unlock()
			if n > 4 {
				t.Fatalf("outstanding = %d exceeds δ = 4", n)
			}
		}
		if got := l.Stats().StreamFrames; got == 0 {
			t.Fatal("write stream on, but no frames were streamed")
		}
	})
}

func TestGroupingReducesMessages(t *testing.T) {
	// The Section 4.1 claim: grouping log records until a force cuts
	// per-record messages by ~7x for ET1. Write 7 records + 1 force and
	// count server packets.
	c := newCluster(t, "s1", "s2")
	l := mustOpen(t, c, 1, 2, func(cfg *Config) { cfg.Delta = 16 })
	defer l.Close()
	before := c.servers["s1"].Stats().PacketsReceived
	for txn := 0; txn < 10; txn++ {
		for i := 0; i < 6; i++ {
			if _, err := l.WriteLog(make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.ForceLog(make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	after := c.servers["s1"].Stats().PacketsReceived
	perTxn := float64(after-before) / 10
	if perTxn > 2.5 {
		t.Fatalf("%.1f packets per 7-record transaction; grouping is not happening", perTxn)
	}
}

func TestServerRestartMidStream(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()
	if _, err := l.ForceLog([]byte("one")); err != nil {
		t.Fatal(err)
	}
	ws := l.WriteSet()
	// Bounce a write-set server: its store survives, its session state
	// does not. The client's next force must still complete (Rst →
	// re-dial, or failover — either is correct).
	c.stop(ws[0])
	c.start(ws[0])
	lsn, err := l.ForceLog([]byte("two"))
	if err != nil {
		t.Fatalf("ForceLog after server bounce: %v", err)
	}
	if data, err := l.ReadLog(lsn); err != nil || string(data) != "two" {
		t.Fatalf("ReadLog = %q, %v", data, err)
	}
}

func TestConcurrentWriters(t *testing.T) {
	// The replicated log has one client node but that node may run
	// many transaction goroutines.
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2, func(cfg *Config) { cfg.Delta = 64 })
	defer l.Close()
	const goroutines = 8
	const per = 20
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for i := 0; i < per; i++ {
				if _, err := l.WriteLog([]byte("concurrent")); err != nil {
					errs <- err
					return
				}
			}
			errs <- l.Force()
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	// All LSNs distinct and consecutive: EndOfLog advanced by exactly
	// goroutines*per.
	stats := l.Stats()
	if stats.Writes != goroutines*per {
		t.Fatalf("writes = %d", stats.Writes)
	}
}

func TestTwoClientsShareServers(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l1 := mustOpen(t, c, 1, 2)
	defer l1.Close()
	l2 := mustOpen(t, c, 2, 2)
	defer l2.Close()

	lsn1, err := l1.ForceLog([]byte("client-1"))
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := l2.ForceLog([]byte("client-2"))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := l1.ReadLog(lsn1); err != nil || string(d) != "client-1" {
		t.Fatalf("client 1 read: %q, %v", d, err)
	}
	if d, err := l2.ReadLog(lsn2); err != nil || string(d) != "client-2" {
		t.Fatalf("client 2 read: %q, %v", d, err)
	}
}

func TestOverloadedServerIsAvoided(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()
	ws := l.WriteSet()
	// Make one write-set server shed all writes. The client times out
	// and takes its logging elsewhere, per Section 4.2.
	overloaded := ws[0]
	c.stop(overloaded)
	c.start(overloaded)
	srv := c.servers[overloaded]
	_ = srv
	c.stop(overloaded)
	shedding := server.New(server.Config{
		Name:       overloaded,
		Store:      c.stores[overloaded],
		Endpoint:   c.net.Endpoint(overloaded),
		Epochs:     c.epochs[overloaded],
		Overloaded: func() bool { return true },
	})
	shedding.Start()
	defer shedding.Stop()

	if _, err := l.ForceLog([]byte("rerouted")); err != nil {
		t.Fatalf("ForceLog with shedding server: %v", err)
	}
	if shed := shedding.Stats().Shed; shed == 0 {
		t.Log("note: client failed over before sending to the shedding server")
	}
}

func BenchmarkForceLogMemnet(b *testing.B) {
	net := transport.NewNetwork(1)
	names := []string{"s1", "s2", "s3"}
	for _, name := range names {
		srv := server.New(server.Config{
			Name:     name,
			Store:    storage.NewMemStore(),
			Endpoint: net.Endpoint(name),
			Epochs:   server.NewMemEpochHost(),
		})
		srv.Start()
		defer srv.Stop()
	}
	l, err := Open(Config{
		ClientID:    1,
		Servers:     names,
		N:           2,
		Delta:       64,
		Endpoint:    net.Endpoint("bench-client"),
		CallTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	data := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.ForceLog(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReadRecordsBackward(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()
	var lsns []record.LSN
	for i := 0; i < 20; i++ {
		lsn, err := l.WriteLog([]byte(fmt.Sprintf("b%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	from := lsns[len(lsns)-1]
	recs, err := l.ReadRecordsBackward(from)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("backward batch of %d records; packing failed", len(recs))
	}
	for i, rec := range recs {
		if rec.LSN != from-record.LSN(i) {
			t.Fatalf("batch[%d].LSN = %d, want %d", i, rec.LSN, from-record.LSN(i))
		}
		// Below the 20 written records lie the initialization's δ
		// not-present markers; everything above them is present.
		if rec.LSN >= lsns[0] && !rec.Present {
			t.Fatalf("batch[%d] (LSN %d) not present", i, rec.LSN)
		}
	}
	// A full backward scan via batches reaches the δ markers and then
	// LSN 1 territory.
	seen := 0
	cursor := from
	for cursor >= 1 {
		batch, err := l.ReadRecordsBackward(cursor)
		if err != nil {
			t.Fatalf("ReadRecordsBackward(%d): %v", cursor, err)
		}
		seen += len(batch)
		last := batch[len(batch)-1].LSN
		if last == 1 {
			break
		}
		cursor = last - 1
	}
	if seen < 20 {
		t.Fatalf("backward scan saw %d records", seen)
	}
	// Beyond end rejected.
	if _, err := l.ReadRecordsBackward(l.EndOfLog() + 1); !errors.Is(err, ErrBeyondEnd) {
		t.Fatalf("beyond end: %v", err)
	}
	// Unacknowledged head served locally.
	lsn, err := l.WriteLog([]byte("unforced"))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := l.ReadRecordsBackward(lsn)
	if err != nil || len(batch) != 1 || string(batch[0].Data) != "unforced" {
		t.Fatalf("buffered head: %v, %v", batch, err)
	}
}

func TestReadRecordsBackwardSkipsStaleCopies(t *testing.T) {
	// Figure 3.3 state: server 3 has stale epoch-3 copies of records 9
	// and 10. A backward read served by server 3 must not leak them.
	c := newCluster(t, "s1", "s2", "s3")
	seed := func(name string, recs ...record.Record) {
		for _, r := range recs {
			if err := c.stores[name].Append(1, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	pr := func(lsn record.LSN, epoch record.Epoch) record.Record {
		return record.Record{LSN: lsn, Epoch: epoch, Present: true, Data: []byte(fmt.Sprintf("<%d,%d>", lsn, epoch))}
	}
	np := func(lsn record.LSN, epoch record.Epoch) record.Record {
		return record.Record{LSN: lsn, Epoch: epoch, Present: false}
	}
	seed("s1", pr(1, 1), pr(2, 1), pr(3, 1), pr(3, 3), np(4, 3), pr(5, 3), pr(6, 3), pr(7, 3), pr(8, 3), pr(9, 3))
	seed("s2", pr(1, 1), pr(2, 1), pr(3, 1), pr(6, 3), pr(7, 3))
	seed("s3", pr(3, 3), np(4, 3), pr(5, 3), pr(8, 3), pr(9, 3), pr(10, 3)) // 10 partially written
	c.seedEpoch(1, 3)
	// Recovery runs without server 3 (the Figure 3.3 walkthrough):
	// record 9 is re-copied at epoch 4, record 10 installed not-present.
	c.stop("s3")
	l := mustOpen(t, c, 1, 2, func(cfg *Config) { cfg.Delta = 1 })
	defer l.Close()
	c.start("s3") // the stale epoch-3 copies of 9 and 10 are back online

	// Backward batches never leak server 3's stale copies: record 10
	// reads not-present at epoch 4 and record 9 carries epoch 4.
	recs, err := l.ReadRecordsBackward(10)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].LSN != 10 || recs[0].Present || recs[0].Epoch != 4 {
		t.Fatalf("ReadRecordsBackward(10)[0] = %v, want not-present at epoch 4", recs[0])
	}
	recs, err = l.ReadRecordsBackward(9)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Epoch != 4 || !recs[0].Present || string(recs[0].Data) != "<9,3>" {
		t.Fatalf("ReadRecordsBackward(9)[0] = %v, want recovered copy at epoch 4", recs[0])
	}
}

// TestDualNetworkSurvivesLANFailure is Section 2's two-network
// arrangement end to end: every node has interfaces on two memnets;
// when the first network dies mid-stream, the client's retransmission
// timeout flips its dual endpoint to the second network and logging
// continues without interruption.
func TestDualNetworkSurvivesLANFailure(t *testing.T) {
	net1 := transport.NewNetwork(1)
	net2 := transport.NewNetwork(2)
	names := []string{"s1", "s2", "s3"}
	var servers []*server.Server
	stores := make(map[string]storage.Store)
	for _, name := range names {
		st := storage.NewMemStore()
		stores[name] = st
		srv := server.New(server.Config{
			Name:     name,
			Store:    st,
			Endpoint: transport.NewDualEndpoint(net1.Endpoint(name), net2.Endpoint(name)),
			Epochs:   server.NewMemEpochHost(),
		})
		srv.Start()
		servers = append(servers, srv)
	}
	defer func() {
		for _, srv := range servers {
			srv.Stop()
		}
	}()

	cep := transport.NewDualEndpoint(net1.Endpoint("client"), net2.Endpoint("client"))
	l, err := Open(Config{
		ClientID:    1,
		Servers:     names,
		N:           2,
		Endpoint:    cep,
		CallTimeout: 60 * time.Millisecond,
		Retries:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	before, err := l.ForceLog([]byte("on network 1"))
	if err != nil {
		t.Fatal(err)
	}
	// The primary LAN fails completely.
	net1.SetFaults(transport.Faults{DropProb: 1})

	after, err := l.ForceLog([]byte("on network 2"))
	if err != nil {
		t.Fatalf("ForceLog after network 1 death: %v", err)
	}
	for _, lsn := range []record.LSN{before, after} {
		if _, err := l.ReadLog(lsn); err != nil {
			t.Fatalf("ReadLog(%d) after LAN failover: %v", lsn, err)
		}
	}
	if cep.Preferred() != 1 {
		t.Errorf("client still prefers the dead network")
	}
	// And back: network 1 heals, network 2 dies.
	net1.SetFaults(transport.Faults{})
	net2.SetFaults(transport.Faults{DropProb: 1})
	if _, err := l.ForceLog([]byte("back on network 1")); err != nil {
		t.Fatalf("ForceLog after flipping back: %v", err)
	}
}
