package core

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"distlog/internal/record"
	"distlog/internal/server"
	"distlog/internal/storage"
	"distlog/internal/transport"
)

// benchCluster starts M servers on a memnet and opens one client —
// the standalone rig benchmarks use (the *testing.T cluster helper
// can't serve benchmarks).
func benchCluster(tb testing.TB, m, n int, faults transport.Faults, mutate ...func(*Config)) *ReplicatedLog {
	tb.Helper()
	net := transport.NewNetwork(1)
	var names []string
	for i := 1; i <= m; i++ {
		name := fmt.Sprintf("s%d", i)
		names = append(names, name)
		srv := server.New(server.Config{
			Name:     name,
			Store:    storage.NewMemStore(),
			Endpoint: net.Endpoint(name),
			Epochs:   server.NewMemEpochHost(),
		})
		srv.Start()
		tb.Cleanup(srv.Stop)
	}
	cfg := Config{
		ClientID:    1,
		Servers:     names,
		N:           n,
		Delta:       64,
		Endpoint:    net.Endpoint("bench-client"),
		CallTimeout: 2 * time.Second,
	}
	for _, mut := range mutate {
		mut(&cfg)
	}
	// Faults only apply to the running log, not to open/recovery.
	l, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	net.SetFaults(faults)
	return l
}

// TestParallelForceLatency checks the tentpole claim: with N=3 and a
// fixed one-way network latency, a force round completes in about one
// round trip — the three acknowledgment waits run concurrently — and
// nowhere near the three round trips a serial protocol would need.
func TestParallelForceLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const oneWay = 10 * time.Millisecond
	const rtt = 2 * oneWay
	l := benchCluster(t, 3, 3, transport.Faults{FixedDelay: oneWay})

	// Warm up sessions and the write path.
	if _, err := l.ForceLog([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	var worst time.Duration
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := l.ForceLog([]byte("timed")); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	// Budget: 1.5× a single round trip (generous scheduling slack).
	// A serial wait per server would need at least 3 round trips.
	if limit := rtt + rtt/2; worst > limit {
		t.Fatalf("worst force latency %v exceeds %v (single RTT %v, serial ≈ %v)",
			worst, limit, rtt, 3*rtt)
	}
}

// TestGroupCommitCoalesces drives concurrent committers and checks
// that Force calls share protocol rounds: fewer rounds than calls, and
// at least one caller rode another's round.
func TestGroupCommitCoalesces(t *testing.T) {
	l := benchCluster(t, 3, 2, transport.Faults{FixedDelay: 2 * time.Millisecond})

	const writers = 8
	const perWriter = 10
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.ForceLog([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	forces, rounds, grouped := l.ForceRoundStats()
	if forces < writers*perWriter {
		t.Fatalf("Forces = %d, want ≥ %d", forces, writers*perWriter)
	}
	if rounds >= forces {
		t.Fatalf("ForceRounds = %d not below Forces = %d: no coalescing", rounds, forces)
	}
	if grouped == 0 {
		t.Fatal("GroupCommits = 0: no caller rode a shared round")
	}
	if st := l.Stats(); st.ForceRounds != rounds || st.GroupCommits != grouped {
		t.Fatalf("Stats disagree with ForceRoundStats: %+v vs (%d, %d)", st, rounds, grouped)
	}
}

// TestConcurrentForceWaitsOnlyForOwnRecords: a committer that arrives
// while a force round is in flight returns once the stable marks pass
// its own records — about one round trip — instead of waiting out the
// in-flight round and then a round of its own (1.5 round trips on
// average). Eight committers on a 5 ms one-way link must show a median
// Force latency of at most 1.3 round trips, where a round trip is what
// a lone Force measures on the same link (at least the nominal 10 ms;
// timer slack on a small machine adds a millisecond or two per hop).
func TestConcurrentForceWaitsOnlyForOwnRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const oneWay = 5 * time.Millisecond
	l := benchCluster(t, 3, 2, transport.Faults{FixedDelay: oneWay})
	median := func(ds []time.Duration) time.Duration {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}
	var solo []time.Duration
	for i := 0; i < 9; i++ {
		start := time.Now()
		if _, err := l.ForceLog([]byte("solo")); err != nil {
			t.Fatal(err)
		}
		solo = append(solo, time.Since(start))
	}
	rtt := max(median(solo), 2*oneWay)

	const committers = 8
	const perCommitter = 25
	lat := make([][]time.Duration, committers)
	var wg sync.WaitGroup
	errCh := make(chan error, committers)
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				if _, err := l.WriteLog([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errCh <- err
					return
				}
				start := time.Now()
				if err := l.Force(); err != nil {
					errCh <- err
					return
				}
				lat[w] = append(lat[w], time.Since(start))
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	var all []time.Duration
	for _, ls := range lat {
		all = append(all, ls...)
	}
	got := median(all)
	t.Logf("median Force latency %v over %d forces (%.2f round trips of %v)",
		got, len(all), float64(got)/float64(rtt), rtt)
	if limit := rtt * 13 / 10; got > limit {
		t.Fatalf("median Force latency %v exceeds %v (1.3 round trips of %v)", got, limit, rtt)
	}
}

// TestForceWaiterSharesFailedRoundError: a Force that does not lead
// the in-flight round, and whose records that round covers, returns
// the round's error when it fails — not a later round's, and not nil.
func TestForceWaiterSharesFailedRoundError(t *testing.T) {
	c := newCluster(t, "s1", "s2")
	l := mustOpen(t, c, 1, 2, func(cfg *Config) {
		cfg.CallTimeout = 20 * time.Millisecond
		cfg.Retries = 1
	})
	defer l.Close()
	if _, err := l.ForceLog([]byte("healthy")); err != nil {
		t.Fatal(err)
	}
	// Every write-set server goes silent and there is no spare: the
	// next round must fail.
	client := l.cfg.Endpoint.Addr()
	for _, s := range []string{"s1", "s2"} {
		c.net.SetLinkFaults(client, s, transport.Faults{DropProb: 1})
		c.net.SetLinkFaults(s, client, transport.Faults{DropProb: 1})
	}
	if _, err := l.WriteLog([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	leader := make(chan error, 1)
	go func() { leader <- l.Force() }()
	waitFor(t, func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.round.active
	})
	// No new writes: this caller's records are exactly the round's.
	waiterErr := l.Force()
	leaderErr := <-leader
	if leaderErr == nil || !errors.Is(leaderErr, ErrUnavailable) {
		t.Fatalf("leader Force = %v, want ErrUnavailable", leaderErr)
	}
	if waiterErr != leaderErr {
		t.Fatalf("waiter Force = %v, want the failed round's error %v", waiterErr, leaderErr)
	}
	if forces, rounds, grouped := l.ForceRoundStats(); forces < rounds+grouped || grouped == 0 {
		t.Fatalf("ForceRoundStats = (%d, %d, %d): the waiter must count as a group commit", forces, rounds, grouped)
	}
}

// TestForceWaiterReleasedBeforeFailureSucceeds: a waiter whose records
// the write set released returns nil even if a round covering them
// fails afterwards — the records are stable. The round here is staged
// by hand on a silent network, so neither acks nor the streamer can
// move anything but the test.
func TestForceWaiterReleasedBeforeFailureSucceeds(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()
	client := l.cfg.Endpoint.Addr()
	for _, s := range []string{"s1", "s2", "s3"} {
		c.net.SetLinkFaults(client, s, transport.Faults{DropProb: 1})
		c.net.SetLinkFaults(s, client, transport.Faults{DropProb: 1})
	}
	l.mu.Lock()
	l.round.active = true // a round is in flight: Force callers wait
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		l.round.active = false
		l.writeCond.Broadcast()
		l.mu.Unlock()
	}()

	force := func() chan error {
		ch := make(chan error, 1)
		go func() { ch <- l.Force() }()
		return ch
	}
	waiting := func(n uint64) {
		waitFor(t, func() bool { return l.Stats().Forces >= n })
	}
	before := l.Stats().Forces
	mine, err := l.WriteLog([]byte("released"))
	if err != nil {
		t.Fatal(err)
	}
	released := force()
	waiting(before + 1)
	later, err := l.WriteLog([]byte("failed"))
	if err != nil {
		t.Fatal(err)
	}
	failed := force()
	waiting(before + 2)

	boom := errors.New("round failed")
	l.mu.Lock()
	l.releaseThroughLocked(mine) // the stable marks pass the first waiter
	l.mu.Unlock()
	l.mu.Lock()
	l.round.failures++ // then a round covering both fails
	l.round.failTarget = later
	l.round.failErr = boom
	l.writeCond.Broadcast()
	l.mu.Unlock()

	result := func(ch chan error) error {
		select {
		case err := <-ch:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("a waiter did not return within 5s")
			return nil
		}
	}
	if err := result(released); err != nil {
		t.Fatalf("released waiter Force = %v, want nil", err)
	}
	if err := result(failed); !errors.Is(err, boom) {
		t.Fatalf("covered waiter Force = %v, want %v", err, boom)
	}
}

// TestFailoverDuringParallelForce kills one write-set server mid-force
// and checks that the waits on the other servers complete, the round
// finishes via a spare, and the holders table routes reads correctly
// afterwards.
func TestFailoverDuringParallelForce(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3", "s4")
	l := mustOpen(t, c, 1, 3)
	defer l.Close()

	// Establish a healthy baseline round.
	if _, err := l.ForceLog([]byte("healthy")); err != nil {
		t.Fatal(err)
	}
	set := l.WriteSet()
	if len(set) != 3 {
		t.Fatalf("write set %v", set)
	}
	victim := set[1]
	client := l.cfg.Endpoint.Addr()

	// The victim goes silent in both directions: its waiter times out
	// and fails over while the other two waiters proceed.
	c.net.SetLinkFaults(client, victim, transport.Faults{DropProb: 1})
	c.net.SetLinkFaults(victim, client, transport.Faults{DropProb: 1})

	var lsns []record.LSN
	for i := 0; i < 5; i++ {
		lsn, err := l.WriteLog([]byte(fmt.Sprintf("after-kill-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Force(); err != nil {
		t.Fatalf("Force with dead write-set server: %v", err)
	}

	if st := l.Stats(); st.Failovers == 0 {
		t.Fatalf("no failover recorded: %+v", st)
	}
	after := l.WriteSet()
	for _, a := range after {
		if a == victim {
			t.Fatalf("victim %s still in write set %v", victim, after)
		}
	}
	if len(after) != 3 {
		t.Fatalf("write set %v after failover", after)
	}
	// The holders table must route reads to the surviving set.
	for i, lsn := range lsns {
		data, err := l.ReadLog(lsn)
		if err != nil {
			t.Fatalf("ReadLog(%d): %v", lsn, err)
		}
		if want := fmt.Sprintf("after-kill-%d", i); string(data) != want {
			t.Fatalf("ReadLog(%d) = %q, want %q", lsn, data, want)
		}
	}
}

// TestConcurrentClientTorture interleaves writes, forces, and reads
// from many goroutines over a lossy, reordering network, then crashes
// the client and verifies every committed record survived recovery.
func TestConcurrentClientTorture(t *testing.T) {
	if testing.Short() {
		t.Skip("torture test")
	}
	c := newCluster(t, "s1", "s2", "s3", "s4")
	c.net.SetFaults(transport.Faults{
		DropProb:   0.02,
		DupProb:    0.02,
		MaxDelay:   200 * time.Microsecond,
		FixedDelay: 100 * time.Microsecond,
	})
	l := mustOpen(t, c, 1, 2, func(cfg *Config) {
		cfg.Delta = 32
		cfg.CallTimeout = 150 * time.Millisecond
		cfg.Retries = 4
	})

	const goroutines = 6
	const ops = 30
	type commit struct {
		lsn  record.LSN
		data string
	}
	var mu sync.Mutex
	var committed []commit

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var pendingLocal []commit
			var lastLSN record.LSN
			for i := 0; i < ops; i++ {
				data := fmt.Sprintf("g%d-op%d", g, i)
				lsn, err := l.WriteLog([]byte(data))
				if err != nil {
					if errors.Is(err, ErrUnavailable) {
						continue // transient: chaos may briefly exhaust servers
					}
					t.Errorf("g%d WriteLog: %v", g, err)
					return
				}
				if lsn <= lastLSN {
					t.Errorf("g%d: LSN %d not above previous %d", g, lsn, lastLSN)
					return
				}
				lastLSN = lsn
				pendingLocal = append(pendingLocal, commit{lsn, data})
				if i%3 == 2 {
					if err := l.Force(); err != nil {
						if errors.Is(err, ErrUnavailable) {
							continue
						}
						t.Errorf("g%d Force: %v", g, err)
						return
					}
					// A successful force commits every record this
					// goroutine wrote before it.
					mu.Lock()
					committed = append(committed, pendingLocal...)
					mu.Unlock()
					pendingLocal = pendingLocal[:0]
					// Read back one of our committed records mid-run.
					if rec, err := l.ReadRecord(lastLSN); err == nil {
						if !rec.Present || string(rec.Data) != data {
							t.Errorf("g%d ReadRecord(%d) = %+v, want %q", g, lastLSN, rec, data)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// LSNs are unique across goroutines.
	seen := make(map[record.LSN]string)
	for _, cm := range committed {
		if prev, dup := seen[cm.lsn]; dup {
			t.Fatalf("LSN %d assigned twice: %q and %q", cm.lsn, prev, cm.data)
		}
		seen[cm.lsn] = cm.data
	}
	st := l.Stats()
	if st.ForceRounds >= st.Forces {
		t.Fatalf("ForceRounds = %d not below Forces = %d: concurrent forces never coalesced",
			st.ForceRounds, st.Forces)
	}

	// Crash: close without flushing, heal the network, recover.
	l.Close()
	c.net.SetFaults(transport.Faults{})
	l2 := mustOpen(t, c, 1, 2, func(cfg *Config) { cfg.Delta = 32 })
	defer l2.Close()
	for _, cm := range committed {
		rec, err := l2.ReadRecord(cm.lsn)
		if err != nil {
			t.Fatalf("after recovery ReadRecord(%d): %v", cm.lsn, err)
		}
		if !rec.Present || string(rec.Data) != cm.data {
			t.Fatalf("after recovery LSN %d = %+v, want data %q", cm.lsn, rec, cm.data)
		}
	}
}

// writePathAllocBudget is the hard per-op allocation ceiling for one
// ForceLog round trip (client and servers together) on the N=2 memnet
// rig: half the 46 allocs/op the pre-change write path spent.
const writePathAllocBudget = 23

// TestWritePathAllocBudget pins the allocation-free wire path with a
// hard budget; a regression that re-introduces per-packet copies or
// per-flush slice rebuilds fails this test long before it shows up in
// a profile.
func TestWritePathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	l := benchCluster(t, 3, 2, transport.Faults{})
	if _, err := l.ForceLog([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 100)
	avg := testing.AllocsPerRun(300, func() {
		if _, err := l.ForceLog(data); err != nil {
			t.Fatal(err)
		}
	})
	if avg > writePathAllocBudget {
		t.Fatalf("write path allocates %.1f objects/op, budget %d", avg, writePathAllocBudget)
	}
}

// BenchmarkWritePathAllocs measures the full WriteLog+Force round trip
// (client, memnet, and both servers) and enforces the same hard
// allocation budget as TestWritePathAllocBudget.
func BenchmarkWritePathAllocs(b *testing.B) {
	l := benchCluster(b, 3, 2, transport.Faults{})
	if _, err := l.ForceLog([]byte("warm")); err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 100)
	var m0, m1 runtime.MemStats
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&m0)
	for i := 0; i < b.N; i++ {
		if _, err := l.ForceLog(data); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	b.StopTimer()
	// The budget is a steady-state per-op ceiling: only enforce it once
	// there are enough iterations to amortize one-time lazy allocations
	// (map growth, timer pools), which otherwise land entirely on the
	// framework's sizing probe at b.N=1.
	if perOp := float64(m1.Mallocs-m0.Mallocs) / float64(b.N); b.N >= 100 && perOp > writePathAllocBudget {
		b.Fatalf("write path allocates %.1f objects/op, budget %d", perOp, writePathAllocBudget)
	}
}

// BenchmarkParallelForce measures a full force round against N=3
// servers over a memnet with 1ms one-way latency: the parallel fan-out
// keeps it near one 2ms round trip rather than three.
func BenchmarkParallelForce(b *testing.B) {
	l := benchCluster(b, 3, 3, transport.Faults{FixedDelay: time.Millisecond})
	data := make([]byte, 100)
	if _, err := l.ForceLog(data); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.ForceLog(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupCommit measures concurrent committers sharing force
// rounds and reports how many protocol rounds each force cost.
func BenchmarkGroupCommit(b *testing.B) {
	l := benchCluster(b, 3, 2, transport.Faults{FixedDelay: 100 * time.Microsecond})
	if _, err := l.ForceLog([]byte("warm")); err != nil {
		b.Fatal(err)
	}
	f0, r0, _ := l.ForceRoundStats()
	// Force waits are I/O-bound: run many committers per CPU so rounds
	// overlap even on a single-core machine.
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		data := make([]byte, 100)
		for pb.Next() {
			if _, err := l.ForceLog(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	f1, r1, _ := l.ForceRoundStats()
	if forces := f1 - f0; forces > 0 {
		b.ReportMetric(float64(r1-r0)/float64(forces), "rounds/force")
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
