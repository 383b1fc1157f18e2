package storage

import (
	"sync"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
)

// MemStore keeps all log data in memory. It provides no durability —
// it models the paper's second-stage prototype, which stored log data
// in the server's virtual memory — and is the backend of choice for
// protocol tests and benchmarks that want to exclude device effects.
type MemStore struct {
	mu      sync.Mutex
	ix      *logIndex
	records map[record.ClientID][]record.Record
	closed  bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{
		ix:      newLogIndex(),
		records: make(map[record.ClientID][]record.Record),
	}
}

// Append implements Store.
func (m *MemStore) Append(c record.ClientID, rec record.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	loc := int64(len(m.records[c]))
	if err := m.ix.appendRecord(c, rec, loc); err != nil {
		return err
	}
	m.records[c] = append(m.records[c], rec.Clone())
	return nil
}

// Force implements Store. Memory is already "stable" for this backend.
func (m *MemStore) Force() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	faultpoint.Hit(FPForce)
	return nil
}

// Read implements Store.
func (m *MemStore) Read(c record.ClientID, lsn record.LSN) (record.Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readLocked(c, lsn)
}

// ReadRange implements Store.
func (m *MemStore) ReadRange(c record.ClientID, from, to record.LSN, maxBytes int) ([]record.Record, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return readRange(from, to, maxBytes, func(lsn record.LSN) (record.Record, error) {
		return m.readLocked(c, lsn)
	})
}

func (m *MemStore) readLocked(c record.ClientID, lsn record.LSN) (record.Record, error) {
	if m.closed {
		return record.Record{}, ErrClosed
	}
	ref, err := lookupRef(m.ix.clients, c, lsn)
	if err != nil {
		return record.Record{}, err
	}
	return m.records[c][ref.loc].Clone(), nil
}

// Intervals implements Store.
func (m *MemStore) Intervals(c record.ClientID) []record.Interval {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ix.intervals(c)
}

// LastKey implements Store.
func (m *MemStore) LastKey(c record.ClientID) (record.LSN, record.Epoch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ix.lastKey(c)
}

// Clients implements Store.
func (m *MemStore) Clients() []record.ClientID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return sortedClients(m.ix.clients)
}

// StageCopy implements Store.
func (m *MemStore) StageCopy(c record.ClientID, rec record.Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if err := m.ix.checkStage(c, rec); err != nil {
		return err
	}
	m.ix.stage.add(c, rec, -1)
	return nil
}

// InstallCopies implements Store.
func (m *MemStore) InstallCopies(c record.ClientID, epoch record.Epoch, want ...Span) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	sp, err := installSpan(want)
	if err != nil {
		return err
	}
	staged, err := m.ix.takeStage(c, epoch, sp)
	if err != nil || staged == nil {
		return err
	}
	for _, sr := range staged {
		if err := faultpoint.HitErr(FPInstallPartial); err != nil {
			return err
		}
		loc := int64(len(m.records[c]))
		m.ix.install(c, sr.rec, loc)
		m.records[c] = append(m.records[c], sr.rec)
	}
	return nil
}

// Truncate implements Store. The memory store also frees the
// truncated records' storage.
func (m *MemStore) Truncate(c record.ClientID, before record.LSN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	ci := m.ix.clients[c]
	if ci == nil {
		return ErrNotStored
	}
	ci.truncate(before)
	// Release the record data (keep slots so locs stay valid).
	for i := range m.records[c] {
		if m.records[c][i].LSN < ci.truncated {
			m.records[c][i].Data = nil
		}
	}
	return nil
}

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
