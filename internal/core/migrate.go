package core

import (
	"errors"
	"fmt"
	"sync"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
	"distlog/internal/telemetry"
	"distlog/internal/wire"
)

// Migrate moves the log's write set to newSet — exactly N servers, not
// necessarily drawn from the configured M (a freshly joined server is
// a valid target) — without losing any acknowledged record and without
// stalling readers. It is the online counterpart of the initialization
// write-set choice: the rebalancer calls it when a server leaves or
// the load-assignment controller decides this client should move.
//
// The protocol reuses the machinery crash recovery already validates:
//
//  1. Obtain a fresh epoch from the replicated identifier generator,
//     so records written after the migration supersede any stale copy
//     a partially-reached old server might still produce.
//  2. Anchor every new server with NewInterval at the first LSN it
//     will receive (the head of the outstanding buffer, or the next
//     LSN when nothing is outstanding) and rewind the per-server send
//     cursor so the streamer replays the buffer there.
//  3. Swap the write set and epoch atomically under the client mutex,
//     after draining the in-flight force round — a round completing
//     across the swap would record holders against the wrong server
//     set.
//  4. Run one closing force that drains the outstanding buffer onto
//     the new set; it returns only after all N new servers
//     acknowledged, which is the zero-loss invariant: every record
//     acknowledged before the migration has its holders recorded on
//     the old set, every later one completes on the new set, and the
//     records in between stay in the outstanding buffer until the
//     closing force confirms them.
//
// Records already in the outstanding buffer keep their original epoch
// stamps; releaseThroughLocked records holders per epoch run, so reads
// of a pre-migration record still check the epoch it was written
// under. The old interval needs no explicit close: the old servers
// simply stop receiving records, and their interval lists end where
// the stream left them.
//
// Concurrent WriteLog/Force calls are safe: writes buffer as usual
// (the streamer redirects them after the swap), and forces either
// complete on the old set before the swap or wait for it and run their
// round on the new set.
func (l *ReplicatedLog) Migrate(newSet []string) error {
	if len(newSet) != l.cfg.N {
		return fmt.Errorf("core: migrate to %d servers, want N=%d", len(newSet), l.cfg.N)
	}
	seen := make(map[string]bool, len(newSet))
	for _, addr := range newSet {
		if seen[addr] {
			return fmt.Errorf("core: duplicate migration target %s", addr)
		}
		seen[addr] = true
	}

	l.migrateMu.Lock()
	defer l.migrateMu.Unlock()

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	same := len(newSet) == len(l.writeSet)
	for _, addr := range newSet {
		found := false
		for _, w := range l.writeSet {
			if w == addr {
				found = true
			}
		}
		same = same && found
	}
	l.mu.Unlock()
	if same {
		return nil // already there
	}

	// Reach every target while the epoch is drawn — it costs no extra
	// round trip — and before touching any client state: an unreachable
	// target aborts the migration with the old set intact.
	targets := make([]*session, len(newSet))
	reachErrs := make([]error, len(newSet))
	var wg sync.WaitGroup
	for i, addr := range newSet {
		wg.Add(1)
		go func() {
			defer wg.Done()
			targets[i], reachErrs[i] = l.reach(addr)
		}()
	}
	// 1. Fresh epoch.
	newEpoch, err := l.migrationEpoch()
	wg.Wait()
	if err != nil {
		return err
	}
	for i, err := range reachErrs {
		if err != nil {
			return fmt.Errorf("core: migrate dial %s: %w", newSet[i], err)
		}
	}

	faultpoint.Hit(FPMigrateBeforeAnchor)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	// Hold new force rounds and drain the one in flight; its end wakes
	// writeCond.
	l.migrating = true
	for l.round.active && !l.closed {
		l.writeCond.Wait()
	}
	if l.closed {
		l.migrating = false
		l.writeCond.Broadcast()
		l.mu.Unlock()
		return ErrClosed
	}

	// 2. Anchor the new servers where the replayed stream will start.
	start := l.nextLSN
	if len(l.outstanding) > 0 {
		start = l.outstanding[0].LSN
	}
	ni := wire.NewIntervalPayload{Epoch: newEpoch, StartingLSN: start}
	for _, sess := range targets {
		if _, err := sess.peer.Send(wire.TNewInterval, 0, ni.Encode()); err != nil {
			// Nothing swapped yet: the old write set is fully intact, and
			// an anchored-but-abandoned target holds no records.
			l.migrating = false
			l.writeCond.Broadcast()
			l.mu.Unlock()
			return fmt.Errorf("core: migrate anchor %s: %w", sess.addr, err)
		}
		sess.mu.Lock()
		sess.win.clear() // rewound frames will be re-registered
		sess.sentHigh = start - 1
		sess.mu.Unlock()
	}

	// 3. Swap. From here on the streamer and every new force round talk
	// to the new set under the new epoch.
	l.writeSet = append(l.writeSet[:0:0], newSet...)
	l.epoch = newEpoch
	l.m.migrations.Add(1)
	l.m.trace.Emit(telemetry.EvMigrate, l.m.node, uint64(start), uint64(newEpoch), 0)
	faultpoint.Hit(FPMigrateAfterAnchor)
	l.migrating = false
	l.writeCond.Broadcast()
	drain := len(l.outstanding) > 0
	l.mu.Unlock()

	// 4. Closing force: every record the old set left unconfirmed must
	// be stable on all N new servers before the migration reports
	// success.
	if drain {
		if err := l.Force(); err != nil {
			return fmt.Errorf("core: migrate closing force: %w", err)
		}
	}
	return nil
}

// migrationEpoch draws a fresh epoch from the same representative
// quorum as initialization; a leaving server still answers epoch reads
// while draining.
func (l *ReplicatedLog) migrationEpoch() (record.Epoch, error) {
	epoch, err := l.newEpoch(0)
	if err != nil {
		return 0, fmt.Errorf("core: migrate epoch: %w", err)
	}
	return record.Epoch(epoch), nil
}

// reach returns a session to addr that has just answered a round trip.
// dial alone is not enough for a migration target: a cached session
// can outlive its server's incarnation (the server went down, or
// rebooted, while the session sat idle), and the anchor Migrate sends
// is fire-and-forget — the migration would report success onto a
// server that never heard of it. A session the server has reset is
// re-dialed once; the fresh handshake also re-reports the truncation
// floor, ahead of the probe on the same session.
func (l *ReplicatedLog) reach(addr string) (*session, error) {
	probe := (&wire.IntervalListReqPayload{}).Encode()
	for attempt := 0; ; attempt++ {
		sess, err := l.dial(addr)
		if err != nil {
			return nil, err
		}
		_, err = sess.call(wire.TIntervalListReq, probe)
		if err == nil || attempt > 0 || !errors.Is(err, ErrServerReset) {
			return sess, err
		}
	}
}
