package core

import (
	"fmt"
	"time"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
	"distlog/internal/telemetry"
	"distlog/internal/wire"
)

// The streaming write protocol (Section 4.2, Figure 4.1). WriteLog
// only buffers; a per-log streamer goroutine packs buffered records
// into frames adaptively — a frame is sent the moment it is full, and
// a partial frame no later than FlushInterval after its first record —
// and transmits continuously under a sliding per-server send window.
// Server acknowledgments carry two cumulative marks: the appended
// high-water mark advances the window edge (the frame left the
// network and entered the server's store), and the stable mark — which
// only moves when a server-side force that started after the append
// completed — releases the outstanding buffer once every write-set
// server has published it. Force degenerates to "stamp the force point,
// wait for stability to cross it": when the tail has already been
// streamed it sends a ForcePoint instead of re-sending records. Release
// is also what completes a concurrent committer's Force: a caller that
// does not lead the in-flight force round returns as soon as the stable
// marks pass its own records (forceround.go), so while anyone waits on
// release every ack reaches the streamer, round or no round.
//
// Congestion control is AIMD: a TBusy NACK (the server shed a write)
// or a retransmission timeout halves the effective window; each ack
// that makes progress widens it by one, back up to WriteWindow.

// sendWindow is the client half of the sliding-window flow control:
// the frames sent but not yet covered by the server's cumulative
// appended mark, and the AIMD-adjusted limit on how many may be in
// flight. Guarded by the owning session's mutex.
type sendWindow struct {
	cwnd int // effective window (frames); halved on congestion, min 1
	max  int // Config.WriteWindow: the ceiling cwnd ramps back to

	inflight []frameInFlight // FIFO, oldest first
	bytes    int             // record payload bytes currently in flight
}

// frameInFlight is one unacknowledged record frame.
type frameInFlight struct {
	lastLSN record.LSN // highest LSN the frame carries
	bytes   int
	sentAt  time.Time
}

// open reports whether another frame may be sent now.
func (w *sendWindow) open() bool { return len(w.inflight) < w.cwnd }

// onSent records one transmitted frame.
func (w *sendWindow) onSent(last record.LSN, bytes int, at time.Time) {
	w.inflight = append(w.inflight, frameInFlight{lastLSN: last, bytes: bytes, sentAt: at})
	w.bytes += bytes
}

// ackThrough pops every frame covered by the server's cumulative
// appended mark and returns how many the ack retired.
func (w *sendWindow) ackThrough(appended record.LSN) int {
	n := 0
	for n < len(w.inflight) && w.inflight[n].lastLSN <= appended {
		w.bytes -= w.inflight[n].bytes
		n++
	}
	if n > 0 {
		w.inflight = w.inflight[:copy(w.inflight, w.inflight[n:])]
	}
	return n
}

// oldest returns the send time of the oldest unacknowledged frame.
func (w *sendWindow) oldest() (time.Time, bool) {
	if len(w.inflight) == 0 {
		return time.Time{}, false
	}
	return w.inflight[0].sentAt, true
}

// backoff is the multiplicative decrease: halve the window, floor 1.
func (w *sendWindow) backoff() {
	if w.cwnd > 1 {
		w.cwnd /= 2
	}
}

// widen is the additive increase: one more frame, up to the ceiling.
func (w *sendWindow) widen() {
	if w.cwnd < w.max {
		w.cwnd++
	}
}

// clear drops the in-flight bookkeeping (the send cursor was rewound;
// the retransmission re-registers whatever it sends).
func (w *sendWindow) clear() {
	w.inflight = w.inflight[:0]
	w.bytes = 0
}

// kickStream wakes the streamer goroutine without blocking; a pending
// kick already covers this one. Safe to call with or without l.mu.
func (l *ReplicatedLog) kickStream() {
	select {
	case l.streamKick <- struct{}{}:
	default:
	}
}

// streamAckEvent is the session's acknowledgment callback: an ack
// wakes the streamer, which releases what the write set's stable marks
// now cover — waking the Force callers waiting on those records — and
// sends what the advanced appended mark lets through the window. It
// does so while a force round is in flight too whenever someone waits
// on release: a committer that arrived after the round started waits
// for its own records, not for the round. Only a round nobody else
// waits on keeps its acks quiet, and only once a streamer pass has seen
// its force points out (a window-capped force relies on each ack
// clocking the remaining frames out): the round's own end releases the
// buffer and kicks the streamer once, so a lone committer's forced
// write pays no per-ack wakeups. A kick skipped just as a waiter
// arrives is covered by the kick the waiter sends when it starts
// waiting.
func (l *ReplicatedLog) streamAckEvent() {
	if !l.quietAcks.Load() {
		l.kickStream()
	}
}

// streamBusyEvent is the session's TBusy callback: count the
// congestion NACK and let the streamer retransmit under the halved
// window. Stream counters are incremented off l.mu (like the cursor
// family), so they are monotone but not transactionally consistent
// with the write-path counters.
func (l *ReplicatedLog) streamBusyEvent() {
	l.m.streamBusy.Add(1)
	l.m.streamBackoffs.Add(1)
	l.kickStream()
}

// streamer is the per-log send pipeline: woken by WriteLog appends and
// by server acknowledgments, it packs and transmits frames under each
// session's send window. The timer is armed only while work is truly
// pending — at the flush deadline when a partial frame is held back,
// at the retransmission deadline while frames are in flight — so an
// idle log costs no wakeups, and a log merely waiting for acks wakes
// at the RTO, not at the (thousands-per-second) flush cadence.
func (l *ReplicatedLog) streamer() {
	defer l.pumpWG.Done()
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var timerC <-chan time.Time
	var armedAt time.Time // when the armed timer fires; meaningless if timerC is nil
	for {
		deadline := false
		select {
		case <-l.streamQuit:
			return
		case <-l.streamKick:
		case <-timerC:
			timerC = nil
			deadline = true
		}
		wait := l.streamStep(deadline)
		switch {
		case wait > 0:
			// Re-arm only to pull the wakeup earlier: pushing it back on
			// every kick would let a steady ack stream starve the flush
			// deadline of a held-back partial frame.
			target := time.Now().Add(wait)
			if timerC == nil || target.Before(armedAt) {
				if timerC != nil && !timer.Stop() {
					<-timer.C
				}
				timer.Reset(wait)
				timerC = timer.C
				armedAt = target
			}
		case timerC != nil:
			if !timer.Stop() {
				<-timer.C
			}
			timerC = nil
		}
	}
}

// streamStep runs one pass of the pipeline: release records the write
// set has acknowledged stable, then service NACKs, retransmission
// timeouts, and the windowed send for each server. deadline marks a
// timer wakeup, which licenses sending a partial frame. Returns how
// soon the streamer needs an unprompted wakeup (0: none — everything
// sent and acknowledged, any new work will arrive with a kick).
func (l *ReplicatedLog) streamStep(deadline bool) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0
	}
	l.releaseStableLocked()
	var wait time.Duration
	forcing := false
	sooner := func(d time.Duration) {
		if d < l.cfg.FlushInterval {
			d = l.cfg.FlushInterval
		}
		if wait == 0 || d < wait {
			wait = d
		}
	}
	for _, addr := range l.writeSet {
		sess := l.sessions[addr]
		if sess == nil {
			continue
		}
		// Loss handling runs only between force rounds: an in-flight
		// round's waiters own retry, NACK service, and failover for
		// their target, and the streamer must not race their rewinds.
		if !l.round.active {
			sess.mu.Lock()
			if at, ok := sess.win.oldest(); ok && time.Since(at) > l.cfg.CallTimeout {
				// Retransmission timeout: presume everything past the
				// appended mark lost, halve the window, rewind, resend.
				sess.win.backoff()
				sess.win.clear()
				if sess.appendedHigh < sess.sentHigh {
					sess.sentHigh = sess.appendedHigh
				}
				rewound := sess.sentHigh
				sess.mu.Unlock()
				l.m.streamTimeouts.Add(1)
				l.m.streamBackoffs.Add(1)
				l.m.trace.Emit(telemetry.EvRetry, sess.addr, uint64(rewound), uint64(l.epoch), 0)
			} else {
				sess.mu.Unlock()
			}
			if err := l.serviceMissingLocked(sess); err != nil {
				l.noteAsyncErrLocked(err)
			}
		}
		held, err := l.streamFramesLocked(sess, deadline)
		if err != nil {
			l.noteAsyncErrLocked(err)
		}
		sess.mu.Lock()
		forcing = forcing || sess.forcePoint != 0
		oldestAt, oldestOk := sess.win.oldest()
		sess.mu.Unlock()
		if held {
			sooner(l.cfg.FlushInterval)
			continue
		}
		// Nothing held for the flush deadline; if frames are in flight
		// the next unprompted deadline is their retransmission timeout
		// (acks arrive with their own kicks).
		if oldestOk {
			sooner(time.Until(oldestAt.Add(l.cfg.CallTimeout)))
		}
	}
	// Quiet the acks of a round nobody else waits on once every force
	// point is out; consistent because rounds, waiters and force points
	// all change under l.mu.
	l.quietAcks.Store(l.round.active && l.releaseWaiters == 0 && !forcing)
	return wait
}

// streamFramesLocked sends unsent outstanding records to one server
// under its send window: full frames immediately, a trailing partial
// frame only once the flush deadline has passed (adaptive packing —
// fill the frame or hit the deadline, whichever comes first). A
// pending force point rides the same windowed stream: the frame that
// covers it goes out as a ForceLog (a bare ForcePoint if the tail was
// already streamed), partials are not held while one is pending, and
// the send never exceeds the window — force traffic obeys the same
// flow control as everything else. Caller holds l.mu. Reports whether
// a partial frame was held back for the flush deadline (data waiting
// behind a closed window is not "held": the ack that reopens the
// window carries its own kick, and a lost ack is the retransmission
// timeout's business).
func (l *ReplicatedLog) streamFramesLocked(sess *session, deadline bool) (bool, error) {
	for {
		sess.mu.Lock()
		winOpen := sess.win.open()
		sentHigh := sess.sentHigh
		fp := sess.forcePoint
		sess.mu.Unlock()

		var toSend []record.Record
		if n := len(l.outstanding); n > 0 {
			first := l.outstanding[0].LSN
			switch {
			case sentHigh < first:
				toSend = l.outstanding
			case sentHigh < l.outstanding[n-1].LSN:
				toSend = l.outstanding[int(sentHigh-first)+1:]
			}
		}
		if len(toSend) == 0 {
			if fp != 0 {
				// The tail is already streamed: stamp the force position
				// without re-sending any records. A lost stamp is the
				// force waiter's timeout to notice; it rewinds and the
				// resent tail carries the force as a ForceLog instead.
				pay := wire.LSNPayload{LSN: fp}
				if _, err := sess.peer.Send(wire.TForcePoint, 0, pay.Encode()); err != nil {
					return false, err
				}
				sess.mu.Lock()
				if sess.forcePoint == fp {
					sess.forcePoint = 0
				}
				sess.mu.Unlock()
			}
			return false, nil
		}
		if !winOpen {
			return false, nil
		}
		n := wire.FitRecords(toSend)
		if n == 0 {
			return false, fmt.Errorf("core: record %d too large for a packet", toSend[0].LSN)
		}
		if n == len(toSend) && !deadline && fp == 0 {
			// Partial frame: hold it back until the flush deadline in
			// the hope that more records arrive to fill it. Never while
			// a force point is pending — the force is waiting on it.
			return true, nil
		}
		batch := toSend[:n]
		last := batch[n-1].LSN
		t := wire.TWriteLog
		if fp != 0 && last >= fp {
			// This frame carries the force point: make it a ForceLog so
			// a single forced write still costs a single packet.
			t = wire.TForceLog
		}
		bytes := 0
		for i := range batch {
			bytes += len(batch[i].Data)
		}
		l.m.trace.Emit(telemetry.EvFlush, sess.addr,
			uint64(last), uint64(l.epoch), uint64(n))
		if _, err := sess.peer.SendRecords(t, 0, l.epoch, batch); err != nil {
			return true, err
		}
		if t == wire.TWriteLog {
			faultpoint.Hit(FPStreamAfterSend)
		}
		sess.mu.Lock()
		if last > sess.sentHigh {
			sess.sentHigh = last
		}
		if t == wire.TForceLog && sess.forcePoint == fp {
			sess.forcePoint = 0
		}
		sess.win.onSent(last, bytes, time.Now())
		occ, cw, fly := len(sess.win.inflight), sess.win.cwnd, sess.win.bytes
		sess.mu.Unlock()
		l.m.streamFrames.Add(1)
		l.m.streamOccupancy.Observe(uint64(occ))
		l.m.streamCwnd.Observe(uint64(cw))
		l.m.streamInflightBytes.Observe(uint64(fly))
	}
}

// releaseStableLocked advances the client's stability edge without a
// force round: the minimum cumulative stable mark across the write set
// releases the outstanding prefix it covers. Sound because a server
// never publishes a stable mark unless a store force that started
// after the covered appends completed (the acker invariant), so the
// minimum across all N servers is exactly the Section 3.1 guarantee a
// force round would have established. Caller holds l.mu.
func (l *ReplicatedLog) releaseStableLocked() {
	if len(l.outstanding) == 0 || len(l.writeSet) == 0 {
		return
	}
	var min record.LSN
	for i, addr := range l.writeSet {
		sess := l.sessions[addr]
		if sess == nil {
			return
		}
		sess.mu.Lock()
		a := sess.ackedHigh
		sess.mu.Unlock()
		if i == 0 || a < min {
			min = a
		}
	}
	l.releaseThroughLocked(min)
}

// waitReleaseLocked blocks a δ-bounded writer until background release
// drops the outstanding buffer below Delta, the deadline passes, or
// the log closes. Caller holds l.mu; returns whether the bound cleared.
func (l *ReplicatedLog) waitReleaseLocked(deadline time.Time) bool {
	var timer *time.Timer
	for len(l.outstanding) >= l.cfg.Delta && !l.closed {
		if !time.Now().Before(deadline) {
			return false
		}
		if timer == nil {
			timer = time.AfterFunc(time.Until(deadline), func() {
				l.mu.Lock()
				l.writeCond.Broadcast()
				l.mu.Unlock()
			})
			defer timer.Stop()
		}
		l.awaitReleaseLocked()
	}
	return len(l.outstanding) < l.cfg.Delta
}

// awaitReleaseLocked blocks on writeCond as a caller waiting for
// background release: while it waits, every acknowledgment wakes the
// streamer, mid-round too (see streamAckEvent). Caller holds l.mu.
func (l *ReplicatedLog) awaitReleaseLocked() {
	l.releaseWaiters++
	l.quietAcks.Store(false)
	l.writeCond.Wait()
	l.releaseWaiters--
}
