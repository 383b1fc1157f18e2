package storage

import (
	"time"

	"distlog/internal/record"
	"distlog/internal/telemetry"
)

// instrumentedStore wraps a Store and counts its activity in a
// telemetry registry. The Store interface is untouched: servers (and
// anything else holding a Store) wrap at construction time with
// Instrument and remain oblivious.
type instrumentedStore struct {
	Store

	appends       *telemetry.Counter
	bytesAppended *telemetry.Counter
	forces        *telemetry.Counter
	truncates     *telemetry.Counter
	forceLatency  *telemetry.Histogram
}

// Instrument wraps store so its appends, forces, and truncations are
// counted under "storage.<backend>." metric families (e.g. backend
// "seg" yields storage.seg.forces). A nil registry returns the store
// unwrapped.
func Instrument(store Store, reg *telemetry.Registry, backend string) Store {
	if reg == nil {
		return store
	}
	prefix := "storage." + backend + "."
	return &instrumentedStore{
		Store:         store,
		appends:       reg.Counter(prefix + "appends"),
		bytesAppended: reg.Counter(prefix + "bytes_appended"),
		forces:        reg.Counter(prefix + "forces"),
		truncates:     reg.Counter(prefix + "truncates"),
		forceLatency:  reg.Histogram(prefix + "force_latency_ns"),
	}
}

func (s *instrumentedStore) Append(c record.ClientID, rec record.Record) error {
	err := s.Store.Append(c, rec)
	if err == nil {
		s.appends.Add(1)
		s.bytesAppended.Add(uint64(len(rec.Data)))
	}
	return err
}

func (s *instrumentedStore) Force() error {
	start := time.Now()
	err := s.Store.Force()
	if err == nil {
		s.forces.Add(1)
		s.forceLatency.Observe(uint64(time.Since(start)))
	}
	return err
}

func (s *instrumentedStore) Truncate(c record.ClientID, before record.LSN) error {
	err := s.Store.Truncate(c, before)
	if err == nil {
		s.truncates.Add(1)
	}
	return err
}
