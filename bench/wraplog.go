package main

import (
	"encoding/binary"
	"sync/atomic"
	"time"

	"distlog"
	"distlog/internal/core"
	"distlog/internal/record"
)

// opCommit is the first byte of recman's commit record, followed by the
// transaction id as a big-endian uint64 (internal/recman/records.go).
// The log wrapper reads just that much of a record to learn which LSN a
// transaction's commit got; TestLogWrapperLearnsCommitLSN pins it.
const opCommit = 0x04

// tracedLog times the recman.Log seam. It embeds the client, so every
// optional capability the engine asserts for — checkpoints, prefix
// truncation, force-round statistics, streams — still succeeds. A K > 1
// engine takes the streams capability and calls *core.Stream directly,
// so on such a log only OpenCursor-free recovery and nothing of the
// write path passes through here.
type tracedLog struct {
	*distlog.Client
	t          *tracer
	node       uint32
	lastLSN    atomic.Uint64
	cursorWait atomic.Int64 // ns blocked in cursor Next
}

func (t *tracer) wrapLog(l *distlog.Client) *tracedLog {
	return &tracedLog{Client: l, t: t, node: uint32(l.ClientID())}
}

func (l *tracedLog) WriteLog(data []byte) (record.LSN, error) {
	if l.t.counts() == nil {
		return l.Client.WriteLog(data)
	}
	start := l.t.now()
	lsn, err := l.Client.WriteLog(data)
	l.t.add(span{kind: spanWriteLog, server: -1, node: l.node, start: start, dur: l.t.now() - start, client: uint64(l.node), lsn: uint64(lsn)})
	if err == nil {
		l.lastLSN.Store(uint64(lsn))
		if len(data) >= 9 && data[0] == opCommit {
			l.t.noteCommitLSN(l.node, binary.BigEndian.Uint64(data[1:9]), uint64(lsn))
		}
	}
	return lsn, err
}

func (l *tracedLog) Force() error {
	if l.t.counts() == nil {
		return l.Client.Force()
	}
	start := l.t.now()
	lsn := l.lastLSN.Load()
	err := l.Client.Force()
	l.t.add(span{kind: spanForce, server: -1, node: l.node, start: start, dur: l.t.now() - start, client: uint64(l.node), lsn: lsn})
	return err
}

// OpenCursor hands the engine a cursor that adds up the time recovery
// spends blocked in Next, which is the scan's share of a restart.
func (l *tracedLog) OpenCursor(from record.LSN, dir core.Direction) (core.Cursor, error) {
	cur, err := l.Client.OpenCursor(from, dir)
	if err != nil {
		return nil, err
	}
	return &tracedCursor{Cursor: cur, wait: &l.cursorWait}, nil
}

type tracedCursor struct {
	core.Cursor
	wait *atomic.Int64
}

func (c *tracedCursor) Next() (record.Record, error) {
	start := time.Now()
	rec, err := c.Cursor.Next()
	c.wait.Add(int64(time.Since(start)))
	return rec, err
}
