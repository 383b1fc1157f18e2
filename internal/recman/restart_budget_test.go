package recman

import (
	"fmt"
	"testing"
	"time"

	"distlog/internal/core"
	"distlog/internal/server"
	"distlog/internal/storage"
	"distlog/internal/transport"
	"distlog/internal/workload"
)

// restartRig is a 3-server memnet cluster whose client node can be
// crashed and reopened: the servers' stores outlive every incarnation.
type restartRig struct {
	t     *testing.T
	net   *transport.Network
	names []string
}

func newRestartRig(t *testing.T) *restartRig {
	t.Helper()
	r := &restartRig{t: t, net: transport.NewNetwork(11), names: []string{"r1", "r2", "r3"}}
	for _, name := range r.names {
		srv := server.New(server.Config{
			Name:     name,
			Store:    storage.NewMemStore(),
			Endpoint: r.net.Endpoint(name),
			Epochs:   server.NewMemEpochHost(),
		})
		srv.Start()
		t.Cleanup(srv.Stop)
	}
	return r
}

func (r *restartRig) open(streams int) *core.ReplicatedLog {
	r.t.Helper()
	l, err := core.Open(core.Config{
		ClientID:    1,
		Servers:     r.names,
		N:           2,
		Streams:     streams,
		Endpoint:    r.net.Endpoint("client-1"),
		CallTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		r.t.Fatal(err)
	}
	return l
}

// roundTrip measures one request/reply exchange on the rig's network as
// it is configured now, timer slack of the delivery pump included.
func (r *restartRig) roundTrip() time.Duration {
	r.t.Helper()
	a, b := r.net.Endpoint("ping"), r.net.Endpoint("pong")
	defer a.Close()
	defer b.Close()
	go func() {
		for {
			p, err := b.Recv(0)
			if err != nil {
				return
			}
			b.Send(p.From, p.Data)
		}
	}()
	best := time.Hour
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := a.Send("pong", []byte("x")); err != nil {
			r.t.Fatal(err)
		}
		if _, err := a.Recv(time.Second); err != nil {
			r.t.Fatal(err)
		}
		best = min(best, time.Since(start))
	}
	return best
}

// TestRestartRoundTripBudget is the restart critical path as a budget:
// over a 5 ms link, Open plus OpenEngine on a 500-transaction history —
// cut by three earlier restarts, each of which left a re-copied tail and
// a marker run under its own epoch — must finish within ten round trips
// (three for Open: the handshake carrying the interval lists and epoch
// reads, the tail read beside the epoch write, CopyLog with
// InstallCopies behind it; one to open the scan's stream and the rest
// to move ~300 chunks through a 128-chunk window), on at most two
// streams per holder. Open alone must stay within three and a half.
// The chain of one-at-a-time calls this replaced took about fifty.
// With K=4 streams the children open concurrently, so Open keeps the
// same budget.
func TestRestartRoundTripBudget(t *testing.T) {
	for _, k := range []int{1, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) { restartBudget(t, k) })
	}
}

func restartBudget(t *testing.T, streams int) {
	r := newRestartRig(t)
	stable := NewStableStore()
	gen := workload.NewET1(workload.ET1Scale{Branches: 2, Tellers: 8, Accounts: 200}, 5)
	const txns = 500
	l := r.open(streams)
	e := openEngine(t, l, stable, Options{})
	for i := 0; i < txns; i++ {
		if i > 0 && i%125 == 0 {
			l.Close() // crash: every transaction so far is committed
			l = r.open(streams)
			e = openEngine(t, l, stable, Options{})
		}
		if _, err := ApplyET1(e, gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	dirty := stable.Snapshot()
	l.Close()

	r.net.SetFaults(transport.Faults{FixedDelay: 5 * time.Millisecond})
	rtt := r.roundTrip()
	restored := NewStableStore()
	for k, v := range dirty {
		restored.Set(k, v)
	}
	start := time.Now()
	l = r.open(streams)
	defer l.Close()
	opened := time.Since(start)
	e = openEngine(t, l, restored, Options{})
	elapsed := time.Since(start)

	if got := e.Stats().RecoveredWinners; got != txns {
		t.Fatalf("recovered %d winners, want %d", got, txns)
	}
	st := l.Stats()
	t.Logf("rtt %v: Open %v (%.1f round trips), restart %v (%.1f round trips), %d records on %d streams",
		rtt, opened, float64(opened)/float64(rtt), elapsed, float64(elapsed)/float64(rtt), l.EndOfLog(), st.CursorStreams)
	const holders = 2 // N
	if streams == 1 && st.CursorStreams > 2*holders {
		t.Fatalf("restart opened %d read streams, want at most %d (two per holder)", st.CursorStreams, 2*holders)
	}
	if raceEnabled {
		t.Skip("wall-clock budget not meaningful under the race detector")
	}
	if budget := 7 * rtt / 2; opened > budget {
		t.Fatalf("Open took %v = %.1f round trips of %v, budget 3.5", opened, float64(opened)/float64(rtt), rtt)
	}
	if budget := 10 * rtt; streams == 1 && elapsed > budget {
		t.Fatalf("restart took %v = %.1f round trips of %v, budget 10", elapsed, float64(elapsed)/float64(rtt), rtt)
	}
}

// TestCheckpointForcesOncePerStream: on a K-stream log the one force of
// a checkpoint's page cleaning is one force of each stream (the undo
// information of a stolen page may sit on any of them), not one per
// dirty key per stream.
func TestCheckpointForcesOncePerStream(t *testing.T) {
	r := newRestartRig(t)
	const k = 2
	l := r.open(k)
	defer l.Close()
	e := openEngine(t, l, NewStableStore(), Options{})
	for i := 0; i < 20; i++ {
		txn := e.Begin()
		if err := txn.Set(fmt.Sprintf("k%d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var before [k]uint64
	for i := range before {
		before[i] = l.Stream(i).Stats().Forces
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		// Page cleaning forces the stream once; writing the stream's
		// checkpoint marker forces it once more.
		if got := l.Stream(i).Stats().Forces - before[i]; got != 2 {
			t.Fatalf("stream %d forced %d times by a checkpoint over 20 dirty keys, want 2", i, got)
		}
	}
}
