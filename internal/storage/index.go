package storage

import (
	"fmt"

	"distlog/internal/record"
)

// logIndex is a store's volatile state: the per-client indexes and the
// CopyLog staging areas. The engine keeps one live, replay rebuilds one
// from the stream, SegStore folds reclaimed segments into one, and
// MemStore keeps its own; all four go through the rules below, so they
// agree on what a stream means.
type logIndex struct {
	clients map[record.ClientID]*clientIndex
	stage   *stage
}

func newLogIndex() *logIndex {
	return &logIndex{
		clients: make(map[record.ClientID]*clientIndex),
		stage:   newStage(),
	}
}

func (ix *logIndex) client(c record.ClientID) *clientIndex {
	ci := ix.clients[c]
	if ci == nil {
		ci = newClientIndex()
		ix.clients[c] = ci
	}
	return ci
}

// index records an entry for the client. When it advances the client's
// epoch, the client's stages at lower epochs die: install would refuse
// them (the epoch may not regress), so they are dropped rather than
// left to pin the stream they were written to.
func (ix *logIndex) index(c record.ClientID, ci *clientIndex, rec record.Record, loc int64) {
	if rec.Epoch > ci.lastEpoch {
		ix.stage.dropBelow(c, rec.Epoch)
	}
	ci.index(rec, loc)
}

// appendRecord indexes a record arriving through the ordinary write
// path, validating Section 3.1.1 sequencing.
func (ix *logIndex) appendRecord(c record.ClientID, rec record.Record, loc int64) error {
	ci := ix.client(c)
	if err := record.ValidateAppend(ci.lastLSN, ci.lastEpoch, rec); err != nil {
		return err
	}
	ix.index(c, ci, rec, loc)
	return nil
}

// checkStage refuses a CopyLog record no install could apply: one with
// a zero key or an epoch below the client's last.
func (ix *logIndex) checkStage(c record.ClientID, rec record.Record) error {
	if rec.LSN == 0 || rec.Epoch == 0 {
		return record.ErrZero
	}
	if ci := ix.clients[c]; ci != nil && rec.Epoch < ci.lastEpoch {
		return fmt.Errorf("%w: copy at epoch %d after %d", record.ErrEpochRegression, rec.Epoch, ci.lastEpoch)
	}
	return nil
}

// takeStage removes and returns the client's stage at epoch, in LSN
// order, if an install of it can apply: the stage holds every LSN of
// want, when there is one (see Store.InstallCopies). It returns
// nothing and no error when want is already installed at epoch.
func (ix *logIndex) takeStage(c record.ClientID, epoch record.Epoch, want *Span) ([]stagedRec, error) {
	ci := ix.clients[c]
	if ci != nil && epoch < ci.lastEpoch {
		return nil, fmt.Errorf("%w: install at epoch %d after %d", record.ErrEpochRegression, epoch, ci.lastEpoch)
	}
	if want != nil && !ix.stage.holds(c, epoch, *want) {
		if ci != nil && installed(ci.intervals, epoch, *want) {
			return nil, nil
		}
		return nil, ErrNotStaged
	}
	staged := ix.stage.take(c, epoch)
	if len(staged) == 0 {
		return nil, ErrNoStagedCopies
	}
	return staged, nil
}

// installed reports whether the interval list shows sp stored at
// epoch: an install of it has already been applied.
func installed(ivs []record.Interval, epoch record.Epoch, sp Span) bool {
	if sp.High < sp.Low {
		return true
	}
	for _, iv := range ivs {
		if iv.Epoch == epoch && iv.Low <= sp.Low && sp.High <= iv.High {
			return true
		}
	}
	return false
}

// install indexes one record of a stage takeStage returned. Installed
// records may legally revisit LSNs below the client's high-water mark;
// their epoch, the stage's, was checked not to regress.
func (ix *logIndex) install(c record.ClientID, rec record.Record, loc int64) {
	ix.index(c, ix.client(c), rec, loc)
}

// intervals returns a copy of the client's interval list.
func (ix *logIndex) intervals(c record.ClientID) []record.Interval {
	ci := ix.clients[c]
	if ci == nil {
		return nil
	}
	return append([]record.Interval(nil), ci.intervals...)
}

// lastKey returns the client's last appended key.
func (ix *logIndex) lastKey(c record.ClientID) (record.LSN, record.Epoch) {
	ci := ix.clients[c]
	if ci == nil {
		return 0, 0
	}
	return ci.lastLSN, ci.lastEpoch
}

// apply replays one stream entry found at the given absolute offset.
func (ix *logIndex) apply(e streamEntry, loc int64) error {
	switch e.kind {
	case kindRecord:
		return ix.appendRecord(e.client, e.rec, loc)
	case kindStagedCopy:
		// A copy written before the store refused dead copies up front
		// is as dead now as it was then.
		if ix.checkStage(e.client, e.rec) == nil {
			ix.stage.add(e.client, e.rec, loc)
		}
	case kindInstall:
		// takeStage refuses a marker that was retried (an earlier
		// marker consumed its stage) or whose stage died before it was
		// written; such a marker changes nothing.
		staged, _ := ix.takeStage(e.client, e.epoch, nil)
		for _, sr := range staged {
			ix.install(e.client, sr.rec, sr.loc)
		}
	case kindTruncate:
		ix.client(e.client).truncate(e.before)
	}
	// kindCheckpoint (written by earlier versions) and kindPad carry
	// nothing to replay.
	return nil
}

// eachFrame decodes the frames of data, which sits at stream offset
// base, and hands each to fn with its offset. It returns the offset
// after the last frame handled; a frame that does not decode, or an
// error from fn, stops it there. Decode failures wrap ErrBadFrame.
func eachFrame(data []byte, base int64, fn func(e streamEntry, loc int64) error) (int64, error) {
	off := 0
	for off < len(data) {
		e, n, err := decodeFrame(data[off:])
		if err == nil {
			err = fn(e, base+int64(off))
		}
		if err != nil {
			return base + int64(off), fmt.Errorf("at offset %d: %w", base+int64(off), err)
		}
		off += n
	}
	return base + int64(off), nil
}
