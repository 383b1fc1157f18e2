package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
	"distlog/internal/wire"
)

// Read-stream flow control: Figure 4.1's moving window pointed at the
// reader. A scan holds one long-lived ReadStream open per holder and
// keeps that server's pipe full by granting packet credit as it
// consumes chunks, instead of asking for the log a piece at a time.
const (
	// streamWindow is how many chunks a stream's server may run ahead of
	// what the reader has taken off the session sink. It bounds the
	// reader's memory (the sink holds the window, nothing more) and, at
	// ~1.3 KB a chunk, keeps a 10 ms link busy at ~17 MB/s.
	streamWindow = 128
	// streamInitialCredit is the burst a server may send before the
	// first grant: half a window, ~150 KB of socket-buffer accounting,
	// inside the kernel's default UDP receive buffer (~208 KB) even if
	// the receive pump has not been scheduled yet. Grants then widen the
	// credit to the full window, clocked by consumption.
	streamInitialCredit = streamWindow / 2
	// streamGrantStep is how far the credit may lag behind window before
	// another grant is sent: four grants per window, so the credit
	// packets are ~3% of the data packets and never crowd the server's
	// 64-slot session queue.
	streamGrantStep = streamWindow / 4
	// markerBatch bounds how many locally synthesized not-present
	// markers (truncated or never-written positions) one scan step
	// materializes.
	markerBatch = 128
)

// errScanStopped ends a scan whose consumer went away (cursor closed
// or repositioned).
var errScanStopped = errors.New("core: scan stopped")

// scanStep is what a scan does next at one position, decided under
// l.mu from the log's state at that moment.
type scanStep struct {
	end     bool            // nothing (more) to scan
	recs    []record.Record // served locally: emit as they are
	to      record.LSN      // remote: stream pos..to from servers
	servers []string
	epochs  []record.Interval // winning epoch of every LSN in pos..to, ascending
	err     error
}

// stepLSN returns the scan-order successor of lsn; 0 when a backward
// scan steps below LSN 1.
func stepLSN(lsn record.LSN, dir Direction) record.LSN {
	if dir == Forward {
		return lsn + 1
	}
	return lsn - 1 // LSN 1 steps to 0: the scan is over
}

// planScan classifies the scan position pos and says how to cover the
// stretch that starts there: unacknowledged records come from the
// client's own buffer, truncated or uncovered positions are
// materialized as not-present markers, and everything else is streamed
// from the servers holding it — one stream for the whole contiguous
// stretch a holder set covers, however many epoch segments (earlier
// restarts' re-copied tails and marker runs) it crosses. bound, when
// non-zero, is the last LSN wanted; a forward scan without one runs to
// the end of the log as it stands when the scan gets there.
func (l *ReplicatedLog) planScan(pos, bound record.LSN, dir Direction) scanStep {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return scanStep{err: ErrClosed}
	}
	forward := dir == Forward
	last := record.LSN(1) // last LSN the scan may reach
	if forward {
		last = l.nextLSN - 1
	}
	if bound != 0 && ((forward && bound < last) || (!forward && bound > last)) {
		last = bound
	}
	if pos == 0 || (forward && pos > last) || (!forward && pos < last) {
		return scanStep{end: true}
	}
	var outLow, outHigh record.LSN
	if len(l.outstanding) > 0 {
		outLow = l.outstanding[0].LSN
		outHigh = l.outstanding[len(l.outstanding)-1].LSN
	}
	inOutstanding := func(lsn record.LSN) bool {
		return outLow != 0 && outLow <= lsn && lsn <= outHigh
	}
	remote := func(lsn record.LSN) bool {
		return lsn >= l.truncated && l.holders.covered(lsn)
	}
	switch {
	case inOutstanding(pos):
		// outstanding holds consecutive LSNs starting at outLow.
		var recs []record.Record
		for lsn := pos; inOutstanding(lsn); lsn = stepLSN(lsn, dir) {
			recs = append(recs, l.outstanding[int(lsn-outLow)].Clone())
			if lsn == last {
				break
			}
		}
		return scanStep{recs: recs}
	case remote(pos):
		// Clip the holder set's stretch to the scan's end, the
		// unacknowledged tail (forward) and the truncation point
		// (backward).
		if forward && outLow != 0 && outLow <= last {
			last = outLow - 1
		}
		if !forward && last < l.truncated {
			last = l.truncated
		}
		epochs, servers := l.holders.stretch(pos, last)
		to := epochs[len(epochs)-1].High
		if !forward {
			to = epochs[0].Low
		}
		return scanStep{to: to, servers: servers, epochs: epochs}
	default:
		// The same answer ReadRecord gives for these positions.
		var recs []record.Record
		for lsn := pos; lsn != 0 && len(recs) < markerBatch && !inOutstanding(lsn) && !remote(lsn); lsn = stepLSN(lsn, dir) {
			recs = append(recs, record.Record{LSN: lsn, Present: false})
			if lsn == last {
				break
			}
		}
		return scanStep{recs: recs}
	}
}

// scan walks the log from pos in dir, handing the records to emit in
// scan order, batch by batch, until it reaches bound (see planScan),
// emit returns false, stop is closed, or it fails. It is the one read
// path: a cursor runs it on a goroutine behind a channel, ReadRecord
// runs it for a single LSN, and initialization runs it over the
// doubtful tail. window is the packet credit extended to each stream.
//
// A remote stretch is streamed from one holder at a time; when a stream
// ends short — timeout, sequence break, a stale lower-epoch copy, the
// server running off what it holds — the scan resumes from the last
// in-order record on the next holder. Results never populate the read
// cache (a scan would evict the point-read working set).
func (l *ReplicatedLog) scan(pos, bound record.LSN, dir Direction, window int, stop <-chan struct{}, emit func([]record.Record) bool) error {
	holder, fruitless := 0, 0
	var lastErr error
	for {
		select {
		case <-stop:
			return errScanStopped
		default:
		}
		st := l.planScan(pos, bound, dir)
		switch {
		case st.err != nil:
			return st.err
		case st.end:
			return nil
		case st.recs != nil:
			if !emit(st.recs) {
				return errScanStopped
			}
			pos = stepLSN(st.recs[len(st.recs)-1].LSN, dir)
			continue
		}
		addr := st.servers[holder%len(st.servers)]
		next, err := l.streamFrom(addr, pos, st, dir, window, stop, emit)
		if errors.Is(err, errScanStopped) {
			return err
		}
		progressed := next != pos
		pos = next
		if pos == stepLSN(st.to, dir) {
			continue // the stretch is done; the holder that served it stays first choice
		}
		// Every fruitless attempt counts; any progress resets the count,
		// so the scan gives up on a position after (Retries+1) rounds of
		// its holders. (Re-planning between attempts is what lets a
		// position truncated mid-scan turn into a marker.)
		l.m.streamRestarts.Add(1)
		holder++
		if progressed {
			fruitless = 0
			continue
		}
		if err != nil {
			lastErr = err
		}
		if fruitless++; fruitless > (l.cfg.Retries+1)*len(st.servers) {
			return fmt.Errorf("%w: LSNs %d..%d on %v: %v", ErrUnavailable, pos, st.to, st.servers, lastErr)
		}
	}
}

// readRange collects the records from..to (scan order) through scan.
// Callers bound the range: one record, or the δ doubtful records.
func (l *ReplicatedLog) readRange(from, to record.LSN, dir Direction, window int) ([]record.Record, error) {
	var out []record.Record
	err := l.scan(from, to, dir, window, nil, func(recs []record.Record) bool {
		out = append(out, recs...)
		return true
	})
	return out, err
}

// epochAt returns the winning epoch of lsn from a stretch's ascending
// epoch segments.
func epochAt(epochs []record.Interval, lsn record.LSN) record.Epoch {
	i := sort.Search(len(epochs), func(i int) bool { return epochs[i].High >= lsn })
	if i < len(epochs) && epochs[i].Low <= lsn {
		return epochs[i].Epoch
	}
	return 0
}

// streamFrom opens one ReadStream against addr for from..st.to and
// feeds its chunks to emit, validating every record's LSN sequence and
// — against the stretch's epoch map — its epoch, and topping the
// server's credit up as chunks are taken off the sink. It returns the
// scan position after the last record accepted. A stream that stops
// short of st.to returns a nil error when the server ended it (it ran
// off its holdings, or sent a sequence break or a stale copy) and the
// transport-level cause otherwise; either way the caller resumes from
// the returned position elsewhere.
func (l *ReplicatedLog) streamFrom(addr string, from record.LSN, st scanStep, dir Direction, window int, stop <-chan struct{}, emit func([]record.Record) bool) (record.LSN, error) {
	sess, err := l.dial(addr)
	if err != nil {
		return from, err
	}
	granted := uint32(min(window, streamInitialCredit))
	req := wire.ReadStreamPayload{From: from, To: st.to, Dir: wire.StreamForward, Credit: uint8(granted)}
	if dir == Backward {
		req.Dir = wire.StreamBackward
	}
	seq, ch, err := sess.openStream(&req, window)
	if err != nil {
		return from, err
	}
	defer sess.closeStream(seq)
	l.m.cursorStreams.Add(1)

	next := from
	var taken uint32 // chunks accepted in order
	// The transport reorders datagrams, and chunks sent back-to-back
	// reorder routinely — that must not look like loss. Early chunks
	// wait here (never more than a window of them) until their
	// predecessors arrive; only the inter-chunk timeout (true loss)
	// ends the stream.
	var early map[uint32]*wire.StreamChunk
	timer := time.NewTimer(l.cfg.CallTimeout)
	defer timer.Stop()
	for {
		var pkt *wire.Packet
		select {
		case p, ok := <-ch:
			if !ok {
				return next, ErrSessionClosed
			}
			pkt = p
		case <-timer.C:
			return next, fmt.Errorf("%w: read stream from %s at LSN %d", ErrCallTimeout, addr, next)
		case <-stop:
			return next, errScanStopped
		}
		if pkt.Type == wire.TErrResp {
			ep, derr := wire.DecodeErrPayload(pkt.Payload)
			if derr != nil {
				return next, derr
			}
			return next, &RemoteError{Code: ep.Code, Message: ep.Message}
		}
		if pkt.Type != wire.TReadStreamData {
			continue
		}
		chunk, derr := wire.DecodeStreamChunk(pkt.Payload)
		if derr != nil {
			return next, nil // corrupt chunk: resume elsewhere
		}
		if chunk.Index < taken {
			continue // duplicate delivery
		}
		if chunk.Index > taken {
			if early == nil {
				early = make(map[uint32]*wire.StreamChunk)
			}
			early[chunk.Index] = chunk
			continue
		}
		for ok := true; ok; chunk, ok = early[taken] {
			delete(early, taken)
			taken++
			faultpoint.Hit(FPCursorMidStream)
			valid := 0
			for _, rec := range chunk.Records {
				if rec.LSN != next || rec.Epoch < epochAt(st.epochs, rec.LSN) {
					break
				}
				valid++
				next = stepLSN(next, dir)
			}
			if valid > 0 && !emit(chunk.Records[:valid]) {
				return next, errScanStopped
			}
			if valid < len(chunk.Records) || chunk.Done {
				// A sequence break or a stale lower-epoch copy keeps the
				// valid prefix and sends the caller to another holder;
				// done is the server's last word either way.
				return next, nil
			}
		}
		// Keep the pipe full: once the credit has fallen a step behind
		// the window, grant up to the window again. Only after a chunk
		// has arrived — the request is then known to have reached the
		// server, so a grant cannot overtake it.
		if limit := taken + uint32(window); limit >= granted+streamGrantStep {
			granted = limit
			credit := wire.ReadCreditPayload{Stream: seq, Limit: limit}
			sess.peer.Send(wire.TReadCredit, 0, credit.Encode())
		}
		if !timer.Stop() {
			<-timer.C
		}
		timer.Reset(l.cfg.CallTimeout)
	}
}

// streamCursor is the Cursor implementation: a scan running ahead of
// the consumer on its own goroutine. The channel between them holds one
// grant step of decoded chunks, so the reader stays a step ahead of a
// slow consumer and no further: with the channel full the reader stops
// taking chunks off the session sink, stops granting credit, and the
// server stops sending — a cursor's memory is bounded by the window
// however long the log.
type streamCursor struct {
	l   *ReplicatedLog
	dir Direction

	mu     sync.Mutex
	pos    record.LSN      // LSN the next Next() must return
	buf    []record.Record // batch being consumed
	rd     *scanReader     // nil between a finished scan and the next Next
	closed bool
	opened time.Time
}

// scanReader is one background scan feeding a cursor.
type scanReader struct {
	out  chan scanBatch
	stop chan struct{} // closed by the cursor to abandon the scan
	done chan struct{} // closed when the goroutine has exited
}

// scanBatch is one delivery from the reader: records, or the scan's
// outcome (nil error: it reached the end of the log).
type scanBatch struct {
	recs []record.Record
	end  bool
	err  error
}

// startLocked launches the background scan from c.pos. Caller holds
// c.mu and has stopped any previous reader.
func (c *streamCursor) startLocked() {
	rd := &scanReader{
		out:  make(chan scanBatch, streamGrantStep),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	c.rd = rd
	go func(pos record.LSN) {
		defer close(rd.done)
		err := c.l.scan(pos, 0, c.dir, streamWindow, rd.stop, func(recs []record.Record) bool {
			select {
			case rd.out <- scanBatch{recs: recs}:
				return true
			case <-rd.stop:
				return false
			}
		})
		select {
		case rd.out <- scanBatch{end: true, err: err}:
		case <-rd.stop:
		}
	}(c.pos)
}

// stopLocked abandons the background scan, if any, and waits for its
// goroutine: every wait it makes also watches stop, except a handshake
// with a server it has no session with, which is bounded by the call
// timeout. Caller holds c.mu.
func (c *streamCursor) stopLocked() {
	if c.rd == nil {
		return
	}
	close(c.rd.stop)
	<-c.rd.done
	c.rd = nil
}

func (c *streamCursor) Next() (record.Record, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.closed {
			return record.Record{}, ErrClosed
		}
		if len(c.buf) > 0 {
			rec := c.buf[0]
			c.buf = c.buf[1:]
			if rec.LSN != c.pos {
				return record.Record{}, fmt.Errorf("core: cursor out of sequence: got LSN %d, want %d", rec.LSN, c.pos)
			}
			c.pos = stepLSN(c.pos, c.dir)
			c.l.m.reads.Add(1)
			return rec, nil
		}
		if c.rd == nil {
			// The last scan ran off the end of the log; writes since
			// may have extended it.
			c.startLocked()
		}
		var b scanBatch
		select {
		case b = <-c.rd.out:
			c.l.m.prefetchHits.Add(1)
		default:
			// The consumer outran the reader: block. Cursors are
			// single-consumer, so holding c.mu here excludes no one.
			c.l.m.prefetchWaits.Add(1)
			b = <-c.rd.out
		}
		c.l.m.windowOccupancy.Observe(uint64(len(c.rd.out)))
		if !b.end {
			c.buf = b.recs
			continue
		}
		c.stopLocked()
		if b.err != nil {
			return record.Record{}, b.err
		}
		return record.Record{}, fmt.Errorf("%w: %d (end of log %d)", ErrBeyondEnd, c.pos, c.l.EndOfLog())
	}
}

func (c *streamCursor) Seek(lsn record.LSN) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	l := c.l
	l.mu.Lock()
	closed, end := l.closed, l.nextLSN-1
	l.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if lsn == 0 || lsn > end {
		return fmt.Errorf("%w: %d (end of log %d)", ErrBeyondEnd, lsn, end)
	}
	c.stopLocked()
	c.pos, c.buf = lsn, nil
	c.startLocked()
	return nil
}

func (c *streamCursor) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.stopLocked()
	c.buf = nil
	c.l.m.scanLatency.Observe(uint64(time.Since(c.opened).Nanoseconds()))
	return nil
}
