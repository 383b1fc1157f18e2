package core

import (
	"sync"
	"time"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
	"distlog/internal/telemetry"
)

// Group commit. A Force call does not necessarily run its own protocol
// round: at most one round is in flight per log, and a caller that
// does not lead it waits only for its own records. The streaming
// pipeline keeps carrying every buffered record while a round is in
// flight, and each server's cumulative stable mark keeps releasing the
// buffer (releaseStableLocked), so a waiter returns the moment the
// minimum stable mark over the write set passes the last record it
// wrote — not when some round whose target happens to cover it ends.
//
//   - With no round in flight, the caller leads one: it flushes the
//     stream with a force point at the tail and fans out the N
//     acknowledgment waits, which own retry, MissingInterval service,
//     and failover.
//   - With a round in flight, the caller waits until its records are
//     released, a round whose target covered them fails (it returns
//     that round's error), or the round ends with its records still
//     outstanding — then it leads the next round.
//
// Waiting on stable marks preserves the paper's Section 3.1 semantics:
// a server publishes a stable mark only after a store force that began
// after the covered appends, so "released" means recorded on all N
// write-set servers of the current epoch, exactly what a private round
// would have established. The only observable difference is fewer
// rounds and lower commit latency under concurrent committers.
//
// forceRound is the state of the in-flight round and the record of the
// latest failed one; both live in the log, so a round costs no heap
// allocation.
type forceRound struct {
	active bool // a round's acknowledgment waits are in flight

	// The latest failed round: failures counts them, failTarget and
	// failErr describe the last. Round targets never decrease (each is
	// the buffer's tail when the round starts), so a waiter that sees
	// failures move and failTarget at or past its records was covered
	// by a failed round.
	failures   uint64
	failTarget record.LSN
	failErr    error
}

// Force makes every record written so far stable on N log servers. It
// retries lost messages, services MissingInterval NACKs, and fails
// over to spare servers when a write-set member stops responding.
// Concurrent callers share rounds (group commit), and within a round
// the N acknowledgment waits run in parallel, so round latency is the
// slowest server's round trip, not the sum.
func (l *ReplicatedLog) Force() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// A write-set migration drains the in-flight round, then swaps the
	// set; a round starting concurrently could release records with the
	// wrong holder set. Entrants wait at this gate and proceed on the
	// post-migration write set.
	for l.migrating && !l.closed {
		l.writeCond.Wait()
	}
	if l.closed {
		// Rejected calls are not protocol activity: they must not count
		// as Forces, or the Forces ≥ ForceRounds + GroupCommits
		// invariant drifts on every post-Close call.
		return ErrClosed
	}
	l.m.forces.Add(1)
	if l.m.sForces != nil {
		l.m.sForces.Add(1)
	}
	if len(l.outstanding) == 0 {
		// Everything written so far has already been confirmed on N
		// servers — which also ends any asynchronous error episode:
		// nothing unstable remains.
		l.asyncErr = nil
		return nil
	}
	mine := l.outstanding[len(l.outstanding)-1].LSN
	failures := l.round.failures
	led, kicked := false, false
	for {
		// Released first: a record the write set has confirmed is stable
		// whatever became of a round that also covered it.
		switch {
		case len(l.outstanding) == 0 || l.outstanding[0].LSN > mine:
			if !led {
				l.m.groupCommits.Add(1)
			}
			return nil
		case l.round.failures != failures && l.round.failTarget >= mine:
			if !led {
				l.m.groupCommits.Add(1)
			}
			return l.round.failErr
		case l.closed:
			return ErrClosed
		case !l.round.active && !l.migrating:
			led = true
			l.leadRoundLocked()
			continue
		}
		if !kicked {
			// The records may have been written without a kick (ForceLog
			// leaves the send to its own round): make sure the streamer
			// carries them while this caller waits.
			kicked = true
			l.kickStream()
		}
		l.awaitReleaseLocked()
	}
}

// roundWaiter is the per-server state of one force round's parallel
// fan-out. Waiters live in the log's reused scratch slice; go'ing the
// run method directly (rather than a closure) keeps the fan-out free
// of per-round heap allocations.
type roundWaiter struct {
	l      *ReplicatedLog
	addr   string
	target record.LSN
	err    error
}

func (w *roundWaiter) run(wg *sync.WaitGroup) {
	defer wg.Done()
	w.wait()
}

// wait performs the acknowledgment wait for one server of the round.
func (w *roundWaiter) wait() {
	w.err = w.l.awaitServer(w.addr, w.target)
	faultpoint.Hit(FPForceWaiterDone)
}

// leadRoundLocked runs one force round: flush the stream with a
// trailing force point, then wait for all N write-set acknowledgments
// in parallel. One waiter goroutine per server keeps per-server retry,
// NACK service, and failover independent: a server failing over never
// stalls or aborts the waits on the others. Called and returns with
// l.mu held (released during the waits); the round's outcome is the
// buffer released through its target or, on failure, l.round's failure
// record. Either way every waiter is woken: the ones still holding
// unreleased records start the next round.
func (l *ReplicatedLog) leadRoundLocked() {
	started := time.Now()
	target := l.outstanding[len(l.outstanding)-1].LSN
	l.round.active = true
	l.m.forceRounds.Add(1)
	faultpoint.Hit(FPForceBeforeFlush)
	err := l.flushLocked(true)
	faultpoint.Hit(FPForceAfterFlush)
	if cap(l.roundWaiters) < len(l.writeSet) {
		l.roundWaiters = make([]roundWaiter, len(l.writeSet))
	}
	waiters := l.roundWaiters[:len(l.writeSet)]
	for i, addr := range l.writeSet {
		waiters[i] = roundWaiter{l: l, addr: addr, target: target}
	}
	l.mu.Unlock()

	if err == nil {
		// The leader's goroutine doubles as the first waiter, so a
		// round spawns N-1 goroutines, not N.
		l.roundWG.Add(len(waiters) - 1)
		for i := 1; i < len(waiters); i++ {
			go waiters[i].run(&l.roundWG)
		}
		waiters[0].wait()
		l.roundWG.Wait()
		for i := range waiters {
			if waiters[i].err != nil {
				err = waiters[i].err
				break
			}
		}
	}

	l.mu.Lock()
	if err == nil {
		// All N acknowledged through the target. The streamer's
		// background release may have beaten us to (part of) the buffer;
		// releaseThroughLocked is idempotent over the already-released
		// prefix, and the round's latency is observed either way so a
		// force round always accounts for exactly one latency sample.
		l.releaseThroughLocked(target)
		l.m.forceLatency.Observe(uint64(time.Since(started)))
		// The round's acknowledgments subsume whatever the background
		// pipeline was struggling with: the error episode is over.
		l.asyncErr = nil
	} else {
		l.round.failures++
		l.round.failTarget = target
		l.round.failErr = err
	}
	l.round.active = false
	l.quietAcks.Store(false)
	l.writeCond.Broadcast()
	// Loss handling was the round's business while it ran; give the
	// streamer one pass to resume it for whatever is still buffered.
	if len(l.outstanding) > 0 {
		l.kickStream()
	}
}

// releaseThroughLocked releases every outstanding record with LSN ≤
// target: the full write set has confirmed them stable, so the
// interval's holders are recorded, the buffer shrinks, and δ-bounded
// writers are woken. Shared by force rounds and the streamer's
// background release (sendwindow.go); a no-op over an already-released
// prefix. Caller holds l.mu. Returns how many records were released.
func (l *ReplicatedLog) releaseThroughLocked(target record.LSN) int {
	if len(l.outstanding) == 0 {
		return 0
	}
	first := l.outstanding[0].LSN
	if target < first {
		return 0
	}
	// Holders are recorded per epoch run, not with the log's current
	// epoch: after a write-set migration the buffer can hold records
	// stamped under the pre-migration epoch ahead of post-migration
	// ones, and claiming the new epoch for old-epoch copies would make
	// them unreadable (reads reject copies below the holder's epoch).
	for i := 0; i < len(l.outstanding) && l.outstanding[i].LSN <= target; {
		j := i
		for j+1 < len(l.outstanding) && l.outstanding[j+1].LSN <= target &&
			l.outstanding[j+1].Epoch == l.outstanding[i].Epoch {
			j++
		}
		l.holders.add(l.outstanding[i].Epoch, l.outstanding[i].LSN, l.outstanding[j].LSN, l.writeSet)
		i = j + 1
	}
	keep := l.outstanding[:0]
	released := 0
	for _, rec := range l.outstanding {
		if rec.LSN > target {
			keep = append(keep, rec)
		} else {
			released++
		}
	}
	l.outstanding = keep
	l.m.recordsPerRound.Observe(uint64(released))
	l.m.trace.Emit(telemetry.EvStable, l.m.node,
		uint64(target), uint64(l.epoch), uint64(released))
	l.writeCond.Broadcast()
	return released
}

// ForceRoundStats reports force coalescing: Force calls, protocol
// rounds actually executed, and calls that rode a shared round. Under
// concurrent committers rounds < forces — the group-commit win.
func (l *ReplicatedLog) ForceRoundStats() (forces, rounds, groupCommits uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.m.statsLocked()
	return s.Forces, s.ForceRounds, s.GroupCommits
}
