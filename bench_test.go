// Package distlog_test holds the experiment harness: one benchmark or
// test per table and figure of the paper's evaluation (see DESIGN.md
// for the index, EXPERIMENTS.md for recorded results), plus
// integration tests of the public API.
package distlog_test

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distlog"
	"distlog/internal/capacity"
	"distlog/internal/disk"
	"distlog/internal/nvram"
	"distlog/internal/storage"
)

// ---------------------------------------------------------------------------
// Public API integration.

func TestPublicAPIRoundTrip(t *testing.T) {
	cluster, err := distlog.NewCluster(distlog.ClusterOptions{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	l, err := cluster.OpenClient(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.ForceLog([]byte("through the public API"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := l.ReadLog(lsn)
	if err != nil || string(data) != "through the public API" {
		t.Fatalf("ReadLog = %q, %v", data, err)
	}
	if _, err := l.ReadLog(lsn + 1); !errors.Is(err, distlog.ErrBeyondEnd) {
		t.Fatalf("beyond end: %v", err)
	}
}

func TestPublicAPIEngine(t *testing.T) {
	cluster, err := distlog.NewCluster(distlog.ClusterOptions{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	l, err := cluster.OpenClient(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	stable := distlog.NewStableStore()
	e, err := distlog.OpenEngine(l, stable, distlog.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gen := distlog.NewET1(distlog.ET1Scale{Branches: 2, Tellers: 20, Accounts: 200}, 1)
	for i := 0; i < 20; i++ {
		if _, err := distlog.ApplyET1(e, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	l.Close() // crash

	l2, err := cluster.OpenClient(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	e2, err := distlog.OpenEngine(l2, stable, distlog.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Get("history/count"); got != 20 {
		t.Fatalf("history/count = %d after recovery", got)
	}
}

func TestPublicAPIOverUDP(t *testing.T) {
	// The same protocol over real sockets: three UDP servers with
	// segmented stores, one UDP client.
	var servers []string
	for i := 0; i < 3; i++ {
		store, err := distlog.OpenSegStore(fmt.Sprintf("%s/server-%d", t.TempDir(), i), distlog.SegOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		ep, err := distlog.ListenUDP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := distlog.NewServer(distlog.ServerConfig{
			Name:     ep.Addr(),
			Store:    store,
			Endpoint: ep,
			Epochs:   distlog.NewMemEpochHost(),
		})
		srv.Start()
		defer srv.Stop()
		servers = append(servers, ep.Addr())
	}
	cep, err := distlog.ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l, err := distlog.Open(distlog.ClientConfig{
		ClientID:    1,
		Servers:     servers,
		N:           2,
		Endpoint:    cep,
		CallTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var lsns []distlog.LSN
	for i := 0; i < 10; i++ {
		lsn, err := l.WriteLog([]byte(fmt.Sprintf("udp-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	for i, lsn := range lsns {
		data, err := l.ReadLog(lsn)
		if err != nil || string(data) != fmt.Sprintf("udp-%d", i) {
			t.Fatalf("ReadLog(%d) = %q, %v", lsn, data, err)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 3.4 — availability of replicated logs.

func TestFigure34Values(t *testing.T) {
	// The three headline numbers the paper reads off the figure.
	c52 := distlog.AvailabilityConfig{M: 5, N: 2, P: 0.05}
	if got := distlog.ClientInitAvailability(c52); math.Abs(got-0.977) > 0.002 {
		t.Errorf("ClientInit(M=5,N=2) = %.4f, paper: ~0.98", got)
	}
	if got := distlog.WriteLogAvailability(c52); got < 0.9999 {
		t.Errorf("WriteLog(M=5,N=2) = %.6f, paper: ~always available", got)
	}
	c53 := distlog.AvailabilityConfig{M: 5, N: 3, P: 0.05}
	if got := distlog.WriteLogAvailability(c53); math.Abs(got-0.999) > 0.001 {
		t.Errorf("WriteLog(M=5,N=3) = %.4f, paper: ~0.999", got)
	}
	pts := distlog.Figure34(0.05, 8)
	if len(pts) == 0 {
		t.Fatal("empty Figure 3.4 series")
	}
}

func BenchmarkAvailabilityFigure34(b *testing.B) {
	for i := 0; i < b.N; i++ {
		distlog.Figure34(0.05, 8)
	}
}

// ---------------------------------------------------------------------------
// Section 4.1 — capacity analysis.

func TestCapacityPaperNumbers(t *testing.T) {
	r := distlog.AnalyzeCapacity(distlog.PaperCapacityParams())
	if r.RequestsPerServer < 150 || r.RequestsPerServer > 190 {
		t.Errorf("RPCs/server = %.0f, paper: ~170", r.RequestsPerServer)
	}
	if r.BytesPerServerPerDay < 9e9 || r.BytesPerServerPerDay > 11e9 {
		t.Errorf("bytes/day = %.2e, paper: ~1e10", r.BytesPerServerPerDay)
	}
}

func BenchmarkCapacitySimulationSec41(b *testing.B) {
	p := capacity.PaperParams()
	for i := 0; i < b.N; i++ {
		rep := capacity.Simulate(p, 5*time.Second)
		if i == 0 {
			b.ReportMetric(rep.RequestsPerServer, "req/s/server")
			b.ReportMetric(rep.DiskUtil*100, "disk%")
			b.ReportMetric(float64(rep.MeanForceLatency.Microseconds()), "force-µs(sim)")
		}
	}
}

// ---------------------------------------------------------------------------
// Section 5.6 — remote logging vs local logging elapsed time.
//
// The paper (April 1986 measurement): "remote logging to virtual
// memory on two remote servers used less than twice the elapsed time
// required for local logging to a single disk."

func measureLocal(t testing.TB, mirrors, writes int) time.Duration {
	dir := t.TempDir()
	l, err := distlog.OpenLocalLog(dir, mirrors)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	data := make([]byte, 100)
	start := time.Now()
	for i := 0; i < writes; i++ {
		if _, err := l.ForceLog(data); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start)
}

func measureRemote(t testing.TB, n, writes int) time.Duration {
	cluster, err := distlog.NewCluster(distlog.ClusterOptions{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	l, err := cluster.OpenClient(1, n)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	data := make([]byte, 100)
	if _, err := l.ForceLog(data); err != nil { // warm the path
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < writes; i++ {
		if _, err := l.ForceLog(data); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start)
}

func TestRemoteUnderTwiceLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	const writes = 300
	// Median of several interleaved rounds for stability.
	ratios := make([]float64, 0, 5)
	for round := 0; round < 5; round++ {
		local := measureLocal(t, 1, writes)
		remote := measureRemote(t, 2, writes)
		ratios = append(ratios, remote.Seconds()/local.Seconds())
	}
	// median
	for i := range ratios {
		for j := i + 1; j < len(ratios); j++ {
			if ratios[j] < ratios[i] {
				ratios[i], ratios[j] = ratios[j], ratios[i]
			}
		}
	}
	median := ratios[len(ratios)/2]
	t.Logf("remote(2 servers, memory) / local(1 disk, fsync) elapsed ratio: %.2f (all: %.2f)", median, ratios)
	if median >= 2.0 {
		t.Errorf("ratio %.2f: paper reports remote logging under twice local", median)
	}
}

func BenchmarkRemoteVsLocalLogging(b *testing.B) {
	b.Run("local-1disk", func(b *testing.B) {
		dir := b.TempDir()
		l, err := distlog.OpenLocalLog(dir, 1)
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
	})
	b.Run("local-2disks-duplexed", func(b *testing.B) {
		dir := b.TempDir()
		l, err := distlog.OpenLocalLog(dir, 2)
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
	})
	b.Run("remote-2servers-seg", func(b *testing.B) {
		// The durable variant: remote servers with fsync-backed stores.
		net := distlog.NewNetwork(1)
		names := []string{"f1", "f2", "f3"}
		for _, name := range names {
			store, err := distlog.OpenSegStore(fmt.Sprintf("%s/%s", b.TempDir(), name), distlog.SegOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			srv := distlog.NewServer(distlog.ServerConfig{
				Name:     name,
				Store:    store,
				Endpoint: net.Endpoint(name),
				Epochs:   distlog.NewMemEpochHost(),
			})
			srv.Start()
			defer srv.Stop()
		}
		l, err := distlog.Open(distlog.ClientConfig{
			ClientID:    1,
			Servers:     names,
			N:           2,
			Endpoint:    net.Endpoint("bench-client-file"),
			CallTimeout: time.Second,
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
	})
	for _, n := range []int{1, 2, 3} {
		n := n
		b.Run(fmt.Sprintf("remote-%dservers-memory", n), func(b *testing.B) {
			cluster, err := distlog.NewCluster(distlog.ClusterOptions{Servers: 3})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			l, err := cluster.OpenClient(1, n)
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
		})
	}
}

// BenchmarkMultiClientForce measures aggregate forced-write throughput
// as the client population grows — the workload the server's
// per-session write pipeline and group force exist for. Each client
// has its own session and write set (M=3, N=2, rotated by ClientID);
// all share three servers over the same kind of store. forces/s is the
// aggregate across clients: with coalescing, it should grow well past
// the single-client rate instead of serializing on the store force.
func BenchmarkMultiClientForce(b *testing.B) {
	for _, kind := range []string{"seg", "modelled"} {
		for _, clients := range []int{1, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/clients=%d", kind, clients), func(b *testing.B) {
				runAggregateForce(b, kind, clients, 0)
			})
		}
	}
}

// runAggregateForce drives ForceLog from `clients` concurrent sessions
// against three servers over `kind` stores ("seg": segment files with
// fsync; "modelled": the track disk behind NVRAM), sharing one iteration
// budget, and reports aggregate forces/s. A non-zero delay puts that
// much constant one-way latency on every link (applied after setup so
// opens and handshakes stay fast).
func runAggregateForce(b *testing.B, kind string, clients int, delay time.Duration) {
	net := distlog.NewNetwork(1)
	names := []string{"mcf1", "mcf2", "mcf3"}
	for _, name := range names {
		var store distlog.Store
		switch kind {
		case "seg":
			s, err := distlog.OpenSegStore(fmt.Sprintf("%s/%s", b.TempDir(), name), distlog.SegOptions{})
			if err != nil {
				b.Fatal(err)
			}
			store = s
		case "modelled":
			s, _, _, err := distlog.NewModelledStore(distlog.DefaultDiskGeometry(), 4)
			if err != nil {
				b.Fatal(err)
			}
			store = s
		}
		defer store.Close()
		srv := distlog.NewServer(distlog.ServerConfig{
			Name:     name,
			Store:    store,
			Endpoint: net.Endpoint(name),
			Epochs:   distlog.NewMemEpochHost(),
		})
		srv.Start()
		defer srv.Stop()
	}
	logs := make([]*distlog.Client, clients)
	for i := range logs {
		l, err := distlog.Open(distlog.ClientConfig{
			ClientID:    distlog.ClientID(i + 1),
			Servers:     names,
			N:           2,
			Endpoint:    net.Endpoint(fmt.Sprintf("mcf-client-%d", i)),
			CallTimeout: 2 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		logs[i] = l
	}
	data := make([]byte, 100)
	if delay > 0 {
		net.SetFaults(distlog.Faults{FixedDelay: delay})
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(l *distlog.Client) {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := l.ForceLog(data); err != nil {
					b.Error(err)
					return
				}
			}
		}(logs[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "forces/s")
}

// BenchmarkAggregateForce is the Section 4.1 capacity question at
// population scale: a log server is sized for ~50 concurrent clients,
// so aggregate forced-write throughput must hold up — not collapse —
// as the population grows past the point where sessions outnumber
// cores. It runs on the same 200µs-latency memnet as
// BenchmarkStreamingWrite: with real round trips each force spends
// most of its life in flight, so independent clients should pipeline
// and 64 clients must not regress against 16. Disk-modelled stores
// make the store force the contended resource; server-side group
// force (ForceGroup) plus the per-session acker are what keep 64
// clients from serializing 64 fsyncs.
func BenchmarkAggregateForce(b *testing.B) {
	for _, clients := range []int{16, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			runAggregateForce(b, "modelled", clients, 200*time.Microsecond)
		})
	}
}

// BenchmarkStreamingWrite measures Section 4.2's streaming write
// protocol on a network where latency is real (200µs each way, the
// paper's LAN regime): a single client pushing plain WriteLog records
// as fast as the sliding-window pipeline allows — frames transmitted
// continuously under WriteWindow, servers acking stability in the
// background, δ satisfied without synchronous rounds.
func BenchmarkStreamingWrite(b *testing.B) {
	b.Run("streaming", func(b *testing.B) {
		cluster, err := distlog.NewCluster(distlog.ClusterOptions{Servers: 3})
		if err != nil {
			b.Fatal(err)
		}
		defer cluster.Close()
		cfg := distlog.ClientConfig{
			ClientID:    1,
			Servers:     cluster.Servers(),
			N:           2,
			Endpoint:    cluster.Network().Endpoint("stream-bench-client"),
			CallTimeout: 2 * time.Second,
			Delta:       1024,
			WriteWindow: 32,
		}
		l, err := distlog.Open(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		data := make([]byte, 256)
		if _, err := l.ForceLog(data); err != nil { // warm the path
			b.Fatal(err)
		}
		// Latency goes in after the handshake so setup cost stays out of
		// the measurement; every measured packet pays it.
		cluster.Network().SetFaults(distlog.Faults{FixedDelay: 200 * time.Microsecond})
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := l.WriteLog(data); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Force(); err != nil {
			b.Fatal(err)
		}
		elapsed := time.Since(start)
		b.StopTimer()
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "recs/s")
	})
}

// BenchmarkReplicationFactor is the N=2 vs N=3 trade of Section 3.2:
// write latency and message cost against availability.
func BenchmarkReplicationFactor(b *testing.B) {
	for _, n := range []int{2, 3} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cluster, err := distlog.NewCluster(distlog.ClusterOptions{Servers: 5})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			l, err := cluster.OpenClient(1, n)
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
			b.ReportMetric(distlog.WriteLogAvailability(distlog.AvailabilityConfig{M: 5, N: n, P: 0.05}), "writeAvail")
		})
	}
}

// ---------------------------------------------------------------------------
// Group commit: concurrent transactions committing through one engine
// share force rounds, so protocol rounds per commit drop well below
// one. rounds/force is the coalescing ratio (1.0 = no sharing).
func BenchmarkGroupCommitTransactions(b *testing.B) {
	cluster, err := distlog.NewCluster(distlog.ClusterOptions{Servers: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	l, err := cluster.OpenClient(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	e, err := distlog.OpenEngine(l, distlog.NewStableStore(), distlog.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	f0, r0, _, _ := e.ForceRoundStats()
	// Commits are I/O-bound waits; oversubscribe so they overlap even
	// on one CPU.
	b.SetParallelism(8)
	b.ResetTimer()
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("acct-%d", worker.Add(1))
		for pb.Next() {
			txn := e.Begin()
			if _, err := txn.Add(key, 1); err != nil {
				b.Error(err)
				return
			}
			if err := txn.Commit(); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if f1, r1, _, ok := e.ForceRoundStats(); ok && f1 > f0 {
		b.ReportMetric(float64(r1-r0)/float64(f1-f0), "rounds/force")
	}
}

// ---------------------------------------------------------------------------
// Grouping ablation (Section 4.1's 7x RPC reduction): the same seven
// 100-byte records per transaction sent grouped-with-one-force versus
// one force per record.
func BenchmarkGroupingAblation(b *testing.B) {
	run := func(b *testing.B, grouped bool) {
		cluster, err := distlog.NewCluster(distlog.ClusterOptions{Servers: 2})
		if err != nil {
			b.Fatal(err)
		}
		defer cluster.Close()
		l, err := cluster.OpenClient(1, 2)
		if err != nil {
			b.Fatal(err)
		}
		defer l.Close()
		data := make([]byte, 100)
		before := cluster.ServerStatsFor("logserver-1").PacketsReceived
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if grouped {
				for r := 0; r < 6; r++ {
					if _, err := l.WriteLog(data); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := l.ForceLog(data); err != nil {
					b.Fatal(err)
				}
			} else {
				for r := 0; r < 7; r++ {
					if _, err := l.ForceLog(data); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.StopTimer()
		after := cluster.ServerStatsFor("logserver-1").PacketsReceived
		b.ReportMetric(float64(after-before)/float64(b.N), "pkts/txn")
	}
	b.Run("grouped", func(b *testing.B) { run(b, true) })
	b.Run("ungrouped", func(b *testing.B) { run(b, false) })
}

// ---------------------------------------------------------------------------
// NVRAM ablation (Sections 4.1/5.1): simulated disk time consumed per
// forced record with the track-at-a-time NVRAM design versus forcing
// each record to disk individually.
func BenchmarkNVRAMAblation(b *testing.B) {
	b.Run("nvram-track-buffer", func(b *testing.B) {
		g := disk.DefaultGeometry()
		d, err := disk.New(g)
		if err != nil {
			b.Fatal(err)
		}
		store, err := storage.OpenTrackStore(d, nvram.New(4*g.TrackSize), nil)
		if err != nil {
			b.Fatal(err)
		}
		defer store.Close()
		data := make([]byte, 100)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := distlog.Record{LSN: distlog.LSN(i + 1), Epoch: 1, Present: true, Data: data}
			err := store.Append(1, rec)
			if errors.Is(err, storage.ErrDiskFull) {
				// The modelled platter filled: the log before this record
				// is no longer needed, so give its segments back.
				if err := store.Truncate(1, rec.LSN-1); err != nil {
					b.Fatal(err)
				}
				for {
					ok, err := store.CompactOnce()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
				}
				err = store.Append(1, rec)
			}
			if err != nil {
				b.Fatal(err)
			}
			if err := store.Force(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(d.Stats().BusyTime.Microseconds())/float64(b.N), "diskµs(sim)/force")
	})
	b.Run("no-nvram-track-per-force", func(b *testing.B) {
		// Without a non-volatile buffer every force must reach the
		// platter: one track write per force.
		g := disk.DefaultGeometry()
		d, err := disk.New(g)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, 100)
		var busy time.Duration
		n := g.NumTracks()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc, err := d.WriteTrack(i%n, data)
			if err != nil {
				b.Fatal(err)
			}
			busy += svc
		}
		b.StopTimer()
		b.ReportMetric(float64(busy.Microseconds())/float64(max(b.N, 1)), "diskµs(sim)/force")
	})
}

// ---------------------------------------------------------------------------
// Interleave ablation (Section 4.3): one sequential stream for all
// clients versus a per-client file layout that seeks between regions.
func BenchmarkInterleaveAblation(b *testing.B) {
	const clients = 5
	g := disk.DefaultGeometry()
	track := make([]byte, g.TrackSize)
	b.Run("interleaved-sequential", func(b *testing.B) {
		d, err := disk.New(g)
		if err != nil {
			b.Fatal(err)
		}
		var busy time.Duration
		n := g.NumTracks()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			svc, err := d.WriteTrack(i%n, track) // all clients share one stream
			if err != nil {
				b.Fatal(err)
			}
			busy += svc
		}
		b.StopTimer()
		b.ReportMetric(float64(busy.Microseconds())/float64(max(b.N, 1)), "diskµs(sim)/track")
	})
	b.Run("per-client-files", func(b *testing.B) {
		d, err := disk.New(g)
		if err != nil {
			b.Fatal(err)
		}
		// Each client's file lives in its own disk region; round-robin
		// writes seek between regions.
		region := g.NumTracks() / clients
		next := make([]int, clients)
		var busy time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := i % clients
			trk := c*region + next[c]%region
			next[c]++
			svc, err := d.WriteTrack(trk, track)
			if err != nil {
				b.Fatal(err)
			}
			busy += svc
		}
		b.StopTimer()
		b.ReportMetric(float64(busy.Microseconds())/float64(max(b.N, 1)), "diskµs(sim)/track")
	})
}

// ---------------------------------------------------------------------------
// Read path: recovery-scan throughput. A recovery manager replays the
// whole log at restart; the streaming cursor pipelines that scan
// (read-ahead window, multi-record stream packets, holder fan-out)
// where the per-record path pays one network round trip per LSN. Run
// over a memnet with non-zero latency so round trips cost real time —
// the regime the cursor exists for. Each iteration opens a fresh
// client, as restart recovery would (and so the client read cache
// cannot serve the per-record baseline across iterations).
func BenchmarkRecoveryScan(b *testing.B) {
	const records = 1024
	cluster, err := distlog.NewCluster(distlog.ClusterOptions{Servers: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer cluster.Close()
	seedClient, err := cluster.OpenClient(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 64)
	for i := 0; i < records; i++ {
		if _, err := seedClient.WriteLog(data); err != nil {
			b.Fatal(err)
		}
		if i%32 == 31 {
			if err := seedClient.Force(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := seedClient.Force(); err != nil {
		b.Fatal(err)
	}
	seedClient.Close()
	cluster.Network().SetFaults(distlog.Faults{FixedDelay: 200 * time.Microsecond})

	openFresh := func(b *testing.B) *distlog.Client {
		b.Helper()
		l, err := cluster.OpenClient(1, 2)
		if err != nil {
			b.Fatal(err)
		}
		return l
	}

	b.Run("per-record", func(b *testing.B) {
		scanned := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := openFresh(b)
			end := l.EndOfLog()
			for lsn := distlog.LSN(1); lsn <= end; lsn++ {
				if _, err := l.ReadRecord(lsn); err != nil {
					b.Fatal(err)
				}
				scanned++
			}
			l.Close()
		}
		b.StopTimer()
		b.ReportMetric(float64(scanned)/b.Elapsed().Seconds(), "recs/s")
	})
	b.Run("cursor", func(b *testing.B) {
		scanned := 0
		var streams uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l := openFresh(b)
			end := l.EndOfLog()
			cur, err := l.OpenCursor(1, distlog.Forward)
			if err != nil {
				b.Fatal(err)
			}
			for lsn := distlog.LSN(1); lsn <= end; lsn++ {
				rec, err := cur.Next()
				if err != nil {
					b.Fatal(err)
				}
				if rec.LSN != lsn {
					b.Fatalf("got LSN %d, want %d", rec.LSN, lsn)
				}
				scanned++
			}
			cur.Close()
			streams += l.Stats().CursorStreams
			l.Close()
		}
		b.StopTimer()
		b.ReportMetric(float64(scanned)/b.Elapsed().Seconds(), "recs/s")
		b.ReportMetric(float64(streams)/float64(b.N), "streams/scan")
	})
}

// ---------------------------------------------------------------------------
// Parallel multi-stream logging: ET1-shaped commit throughput as the
// client's log is spread over K streams. A single stream admits one
// force round at a time — commits across the engine's concurrent
// transactions coalesce into it, but the round pipeline is depth one
// and every commit eats at least a full round trip of queueing. K
// streams run K independent force pipelines against the same servers
// (transactions are assigned round-robin, commit records carry
// dependency vectors), so with the worker pool held fixed the rounds
// overlap and commits/s should scale well past the K=1 rate.
//
// Each worker runs DebitCredit transactions against its own bank
// partition rather than ApplyET1: ET1's shared history/count row is a
// global lock point under strict 2PL, and lock-serialized commits
// measure commit latency, not log throughput, at every K.
func BenchmarkStreamScaling(b *testing.B) {
	const workers = 8
	for _, k := range []int{1, 2, 4} {
		k := k
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			cluster, err := distlog.NewCluster(distlog.ClusterOptions{Servers: 3, Streams: k})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			l, err := cluster.OpenClient(1, 2)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			e, err := distlog.OpenEngine(l, distlog.NewStableStore(), distlog.EngineOptions{})
			if err != nil {
				b.Fatal(err)
			}
			scale := distlog.DefaultET1Scale()
			gens := make([]*distlog.ET1Generator, workers)
			for i := range gens {
				gens[i] = distlog.NewET1(scale, int64(i+1))
			}
			et1Shaped := func(w int, txn distlog.ET1Txn) error {
				t := e.Begin()
				if _, err := t.Add(fmt.Sprintf("w%d/branch/%d", w, txn.Branch), txn.Delta); err != nil {
					return err
				}
				if _, err := t.Add(fmt.Sprintf("w%d/teller/%d", w, txn.Teller), txn.Delta); err != nil {
					return err
				}
				if _, err := t.Add(fmt.Sprintf("w%d/account/%d", w, txn.Account), txn.Delta); err != nil {
					return err
				}
				if _, err := t.Add(fmt.Sprintf("w%d/history", w), 1); err != nil {
					return err
				}
				return t.Commit()
			}
			// Warm the path, then add the LAN round trip every commit pays.
			if err := et1Shaped(0, gens[0].Next()); err != nil {
				b.Fatal(err)
			}
			cluster.Network().SetFaults(distlog.Faults{FixedDelay: 200 * time.Microsecond})
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			start := time.Now()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if err := et1Shaped(w, gens[w].Next()); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "txns/s")
		})
	}
}

// BenchmarkParallelRecovery measures restart recovery of the same ET1
// history logged on one stream versus four. Both scans run over a
// 200µs-latency memnet; the single-stream recovery is one prefetching
// cursor, the multi-stream recovery opens K cursors through the same
// prefetch engine and merges them by dependency vector — K read
// pipelines in flight instead of one.
func BenchmarkParallelRecovery(b *testing.B) {
	const txns = 500
	for _, k := range []int{1, 4} {
		k := k
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			cluster, err := distlog.NewCluster(distlog.ClusterOptions{Servers: 3, Streams: k})
			if err != nil {
				b.Fatal(err)
			}
			defer cluster.Close()
			stable := distlog.NewStableStore()
			l, err := cluster.OpenClient(1, 2)
			if err != nil {
				b.Fatal(err)
			}
			e, err := distlog.OpenEngine(l, stable, distlog.EngineOptions{})
			if err != nil {
				b.Fatal(err)
			}
			gen := distlog.NewET1(distlog.DefaultET1Scale(), 17)
			for i := 0; i < txns; i++ {
				if _, err := distlog.ApplyET1(e, gen.Next()); err != nil {
					b.Fatal(err)
				}
			}
			l.Close() // crash: recovery replays the whole history
			dirty := stable.Snapshot()
			cluster.Network().SetFaults(distlog.Faults{FixedDelay: 200 * time.Microsecond})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				restored := distlog.NewStableStore()
				for key, v := range dirty {
					restored.Set(key, v)
				}
				l2, err := cluster.OpenClient(1, 2)
				if err != nil {
					b.Fatal(err)
				}
				e2, err := distlog.OpenEngine(l2, restored, distlog.EngineOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if got := e2.Stats().RecoveredWinners; got != txns {
					b.Fatalf("recovered %d winners, want %d", got, txns)
				}
				l2.Close()
			}
			b.StopTimer()
			b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e3, "recovery-ms")
		})
	}
}

// TestSpaceManagementEndToEnd exercises the Section 5.3 pipeline: the
// transaction engine checkpoints, the replicated log truncates its
// prefix on every server, and restart recovery replays only the short
// suffix.
func TestSpaceManagementEndToEnd(t *testing.T) {
	cluster, err := distlog.NewCluster(distlog.ClusterOptions{Servers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	l, err := cluster.OpenClient(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	stable := distlog.NewStableStore()
	e, err := distlog.OpenEngine(l, stable, distlog.EngineOptions{
		CheckpointEvery:      25,
		TruncateOnCheckpoint: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := distlog.NewET1(distlog.ET1Scale{Branches: 2, Tellers: 20, Accounts: 200}, 9)
	for i := 0; i < 100; i++ {
		if _, err := distlog.ApplyET1(e, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if l.Truncated() == 0 {
		t.Fatal("no truncation happened")
	}
	// Server-side interval lists are clipped.
	for _, name := range cluster.Servers() {
		ivs := cluster.Store(name).Intervals(1)
		if len(ivs) > 0 && ivs[0].Low < l.Truncated()/2 {
			t.Fatalf("%s retains a long prefix: %v (truncated at %d)", name, ivs[:1], l.Truncated())
		}
	}
	l.Close() // crash

	l2, err := cluster.OpenClient(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	e2, err := distlog.OpenEngine(l2, stable, distlog.EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Get("history/count"); got != 100 {
		t.Fatalf("history/count = %d after recovery with truncated log", got)
	}
}

// TestModelledClusterEndToEnd runs the full pipeline over the paper's
// modelled hardware: each log server stores its stream in battery-
// backed NVRAM drained track-at-a-time to a simulated logging disk.
func TestModelledClusterEndToEnd(t *testing.T) {
	cluster, err := distlog.NewCluster(distlog.ClusterOptions{Servers: 3, Modelled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	l, err := cluster.OpenClient(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	var lsns []distlog.LSN
	for i := 0; i < 200; i++ {
		lsn, err := l.WriteLog([]byte(fmt.Sprintf("modelled-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
		if i%10 == 9 {
			if err := l.Force(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	for i, lsn := range lsns {
		data, err := l.ReadLog(lsn)
		if err != nil || string(data) != fmt.Sprintf("modelled-%d", i) {
			t.Fatalf("ReadLog(%d) = %q, %v", lsn, data, err)
		}
	}
	// Restart survives with the modelled store too.
	l.Close()
	l2, err := cluster.OpenClient(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.ReadLog(lsns[0]); err != nil {
		t.Fatalf("ReadLog after restart: %v", err)
	}
}

// BenchmarkForceUnderCompaction measures what background segment
// compaction costs the foreground force path (Section 5.3: space
// management must never interfere with logging). Three servers run
// over segmented stores with a cold archive tier; the client
// force-appends 100-byte records, checkpointing every 200 forces so
// truncation keeps freeing segments for the compactor to reclaim. The
// compactor=off case is the baseline; compactor=on adds a
// latency-paced compactor per server. p50-ns/p99-ns are the client's
// observed per-force latencies — the acceptance bar is p99 within a
// few percent of the baseline.
func BenchmarkForceUnderCompaction(b *testing.B) {
	for _, compacting := range []bool{false, true} {
		name := "compactor=off"
		if compacting {
			name = "compactor=on"
		}
		b.Run(name, func(b *testing.B) {
			net := distlog.NewNetwork(1)
			names := []string{"fc1", "fc2", "fc3"}
			reg := distlog.NewTelemetry()
			for _, srvName := range names {
				arch, err := distlog.OpenArchive(fmt.Sprintf("%s/%s-arch", b.TempDir(), srvName), distlog.ArchiveOptions{})
				if err != nil {
					b.Fatal(err)
				}
				defer arch.Close()
				seg, err := distlog.OpenSegStore(fmt.Sprintf("%s/%s", b.TempDir(), srvName), distlog.SegOptions{
					SegmentBytes: 32 << 10,
					Archive:      arch,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer seg.Close()
				if compacting {
					comp := distlog.NewCompactor(distlog.CompactorConfig{
						Store:          seg,
						Interval:       time.Millisecond,
						Backoff:        25 * time.Millisecond,
						ForceHist:      reg.Histogram("storage.seg.force_latency_ns"),
						ForceP99Budget: uint64(2 * time.Millisecond),
					})
					defer comp.Stop()
				}
				srv := distlog.NewServer(distlog.ServerConfig{
					Name:     srvName,
					Store:    storage.Instrument(seg, reg, "seg"),
					Endpoint: net.Endpoint(srvName),
					Epochs:   distlog.NewMemEpochHost(),
				})
				srv.Start()
				defer srv.Stop()
			}
			l, err := distlog.Open(distlog.ClientConfig{
				ClientID:    1,
				Servers:     names,
				N:           2,
				Endpoint:    net.Endpoint("fc-client"),
				CallTimeout: 2 * time.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()

			data := make([]byte, 100)
			lat := make([]time.Duration, 0, b.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, err := l.ForceLog(data); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(start))
				if (i+1)%200 == 0 {
					if _, err := l.Checkpoint(nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			if len(lat) > 0 {
				b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
				b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
			}
		})
	}
}
