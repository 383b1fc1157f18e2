package main

import (
	"distlog"
	"distlog/internal/record"
)

// tracedStore times the three Store calls on a log server's hot paths —
// Append and Force under a commit, Read under a restart — and passes
// every call through unchanged.
type tracedStore struct {
	distlog.Store
	t   *tracer
	idx int8
}

func (t *tracer) wrapStore(s distlog.Store, server int) distlog.Store {
	return &tracedStore{Store: s, t: t, idx: int8(server)}
}

func (s *tracedStore) Append(c record.ClientID, rec record.Record) error {
	pc := s.t.counts()
	if pc == nil {
		return s.Store.Append(c, rec)
	}
	size := rec.EncodedSize()
	start := s.t.now()
	err := s.Store.Append(c, rec)
	s.t.add(span{kind: spanAppend, server: s.idx, node: baseClient(uint64(c)), start: start, dur: s.t.now() - start, client: uint64(c), lsn: uint64(rec.LSN)})
	pc.appends.Add(1)
	pc.appendBytes.Add(uint64(size))
	return err
}

func (s *tracedStore) Force() error {
	pc := s.t.counts()
	if pc == nil {
		return s.Store.Force()
	}
	start := s.t.now()
	err := s.Store.Force()
	s.t.add(span{kind: spanStoreForce, server: s.idx, start: start, dur: s.t.now() - start})
	pc.storeForces.Add(1)
	return err
}

func (s *tracedStore) Read(c record.ClientID, lsn record.LSN) (record.Record, error) {
	pc := s.t.counts()
	if pc == nil {
		return s.Store.Read(c, lsn)
	}
	start := s.t.now()
	rec, err := s.Store.Read(c, lsn)
	s.t.add(span{kind: spanStoreRead, server: s.idx, node: baseClient(uint64(c)), start: start, dur: s.t.now() - start, client: uint64(c), lsn: uint64(lsn)})
	pc.storeReads.Add(1)
	return rec, err
}
