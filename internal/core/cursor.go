package core

import (
	"fmt"
	"time"

	"distlog/internal/record"
)

// Direction selects a cursor's scan direction.
type Direction int8

// Scan directions.
const (
	// Forward scans toward the end of the log (ascending LSNs).
	Forward Direction = 0
	// Backward scans toward LSN 1 (descending LSNs) — the order a
	// recovery manager's undo pass wants.
	Backward Direction = 1
)

func (d Direction) String() string {
	if d == Backward {
		return "backward"
	}
	return "forward"
}

// Cursor streams log records in one direction. Next returns every
// position the log covers — not-present markers included, with
// Present == false — so scans skip superseded positions uniformly,
// exactly as a ReadRecord loop would. A cursor is not safe for
// concurrent use; open one per scanning goroutine.
//
// Behind Next a scan runs ahead of the consumer: one long-lived read
// stream per holder over the whole contiguous stretch that holder
// covers, kept full by a packet credit the cursor grants as it consumes
// (Figure 4.1's window flow control, pointed at the reader), resuming
// on another holder from the last in-order record when a stream dies.
// A scan therefore costs a round trip per holder stretch plus transfer
// time, and a cursor's memory is bounded by the credit window however
// long the log.
type Cursor interface {
	// Next returns the record at the cursor position and advances. At
	// the end of the scan (past the end of the log, or below LSN 1) it
	// returns ErrBeyondEnd.
	Next() (record.Record, error)
	// Seek repositions the cursor to lsn, keeping its direction. The
	// scan running ahead from the old position is abandoned.
	Seek(lsn record.LSN) error
	// Close releases the cursor. Next and Seek fail afterwards.
	Close() error
}

// OpenCursor returns a streaming cursor positioned on from, scanning in
// dir. The position must be within the log (1 through EndOfLog), as for
// ReadRecord. ReadLog/ReadRecord remain the one-record compatibility
// surface over the same fetch engine.
func (l *ReplicatedLog) OpenCursor(from record.LSN, dir Direction) (Cursor, error) {
	if dir != Forward && dir != Backward {
		return nil, fmt.Errorf("core: invalid cursor direction %d", int8(dir))
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, ErrClosed
	}
	if from == 0 || from >= l.nextLSN {
		end := l.nextLSN - 1
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: %d (end of log %d)", ErrBeyondEnd, from, end)
	}
	l.mu.Unlock()
	c := &streamCursor{l: l, dir: dir, pos: from, opened: time.Now()}
	c.mu.Lock()
	c.startLocked()
	c.mu.Unlock()
	return c, nil
}
