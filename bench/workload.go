package main

import (
	"fmt"
	"time"

	"distlog"
)

// Cluster shape shared by every workload: M = 3 log servers, each record
// written to N = 2 of them.
const (
	numServers = 3
	copiesN    = 2
	// linkDelay is the one-way latency injected on the in-memory network
	// of the _lan workloads, so a round trip costs 400µs.
	linkDelay = 200 * time.Microsecond
	// historyClientID owns the restart history; commit-phase clients are
	// numbered from 1.
	historyClientID distlog.ClientID = 100
	// txnPool is how many ET1 transactions each committer draws before
	// the clock starts; a committer that outruns it starts over.
	txnPool = 1 << 15
)

// spec describes one workload. Its fields are the properties the
// system's behaviour depends on: K, network and store, and how many
// committers share one log.
type spec struct {
	name string
	why  string
	// streams is K, the parallel logging streams of each client's log.
	streams int
	// delta is δ, how many unacknowledged records a stream may have
	// outstanding; 0 is core's default of 16. The two eight-committer
	// workloads raise it to 64, above the 8 x 7 records their committers
	// can have in flight: at 16 WriteLog blocks on the δ window, two
	// transactions fit per round trip, the eight committers race for the
	// slots, and the commit latency that results has no quantile that
	// repeats from run to run (its median moved between 2.6 and 9.5 ms
	// over ten runs). It also gave K=4 four times the window of K=1, so
	// the pair compared windows and not K.
	delta int
	// udpFsync selects real UDP on loopback over SegStore + Archive +
	// Compactor with real fsync (the logserverd configuration); false
	// selects the in-memory network with linkDelay over the modelled
	// NVRAM+disk store.
	udpFsync bool
	// clients is the number of client nodes (one log, one engine, one
	// endpoint each); committers is the closed-loop goroutines per
	// client.
	clients    int
	committers int
	// realET1 runs distlog.ApplyET1 itself; otherwise each committer runs
	// the same seven records against keys of its own partition, because
	// ET1's history/count row is a global lock under strict 2PL and would
	// serialise the committers that group commit and K streams exist for.
	realET1 bool
	engine  distlog.EngineOptions
}

var specs = []spec{
	{
		name:       "et1_lan",
		why:        "K=1, 400us round trip, modelled NVRAM store, 2 clients x 1 committer running the real ApplyET1: round-trip bound, storage at memory speed, so a storage change must not move it",
		streams:    1,
		clients:    2,
		committers: 1,
		realET1:    true,
	},
	{
		name:       "et1_udp_fsync",
		why:        "K=1, real UDP on loopback, SegStore + Archive + Compactor with real fsync, 2 clients x 4 committers: storage force, server force coalescing, compaction and syscalls dominate, network nearly free",
		streams:    1,
		udpFsync:   true,
		clients:    2,
		committers: 4,
		engine:     distlog.EngineOptions{CheckpointEvery: 2000, TruncateOnCheckpoint: true},
	},
	{
		name:       "group_k1_lan",
		why:        "K=1, same network and store as et1_lan, 1 client x 8 committers on partitioned keys, delta=64: client group commit and the depth-one force-round pipeline do the work",
		streams:    1,
		delta:      64,
		clients:    1,
		committers: 8,
	},
	{
		name:       "streams_k4_lan",
		why:        "identical to group_k1_lan but K=4 streams with merged-cursor restart: the pair isolates K, so a K-stream change must show here and not on group_k1_lan",
		streams:    4,
		delta:      64,
		clients:    1,
		committers: 8,
	},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// et1Note pads update records to the paper's 100-byte record size, as
// recman's own ET1 does.
var et1Note = make([]byte, 64)

// txnTimer receives the duration of each engine call of one traced
// transaction. A nil timer makes the calls untimed.
type txnTimer interface {
	update(d time.Duration)
	commit(txnID uint64, start time.Time, d time.Duration)
}

// applyET1Shaped runs the seven records of recman.ApplyET1 — six
// updates, one forced commit — against keys under prefix. With an empty
// prefix it writes byte-identical log records to ApplyET1 (pinned by
// TestShapedMatchesApplyET1); traced runs use it in ApplyET1's place so
// each engine call can be timed from outside the engine.
func applyET1Shaped(e *distlog.Engine, prefix string, txn distlog.ET1Txn, tm txnTimer) (err error) {
	t := e.Begin()
	defer func() {
		if err != nil {
			_ = t.Abort() // the run is about to stop on err; Abort only frees the locks
		}
	}()
	var mark time.Time
	lap := func() {
		if tm != nil {
			now := time.Now()
			tm.update(now.Sub(mark))
			mark = now
		}
	}
	if tm != nil {
		mark = time.Now()
	}
	for _, k := range txn.Keys() {
		if _, err = t.AddNote(prefix+k, txn.Delta, et1Note); err != nil {
			return err
		}
		lap()
	}
	seq, err := t.Add(prefix+"history/count", 1)
	if err != nil {
		return err
	}
	lap()
	if err = t.SetNote(fmt.Sprintf("%shistory/item/%d", prefix, seq), txn.Delta, []byte(txn.HistoryLine())); err != nil {
		return err
	}
	lap()
	if err = t.SetNote(prefix+"audit/last_account", int64(txn.Account), et1Note); err != nil {
		return err
	}
	lap()
	if err = t.Commit(); err != nil {
		return err
	}
	if tm != nil {
		tm.commit(t.ID(), mark, time.Since(mark))
	}
	return nil
}

// expectedState folds the first n transactions of a committer's pool
// into the values its partition must hold after every one of them
// committed.
func expectedState(prefix string, pool []distlog.ET1Txn, n int) map[string]int64 {
	want := make(map[string]int64)
	for i := 0; i < n; i++ {
		txn := pool[i%len(pool)]
		for _, k := range txn.Keys() {
			want[prefix+k] += txn.Delta
		}
		want[prefix+"history/count"]++
		want[fmt.Sprintf("%shistory/item/%d", prefix, i+1)] = txn.Delta
		want[prefix+"audit/last_account"] = int64(txn.Account)
	}
	return want
}
