package storage

// Usage implementations for the non-segmented backends, so the
// disk-usage gauges and `logctl du` work against every store. The
// segmented store's Usage lives in segstore.go.

// Usage implements UsageReporter. The memory store frees truncated
// data immediately, so nothing is ever reclaimable.
func (m *MemStore) Usage() Usage {
	m.mu.Lock()
	defer m.mu.Unlock()
	var u Usage
	for _, recs := range m.records {
		for i := range recs {
			u.LiveBytes += int64(len(recs[i].Data))
		}
	}
	return u
}

// Usage implements UsageReporter. The NVRAM-backed store cannot cheaply
// attribute track-disk bytes to dead entries, so it reports only the
// stream length.
func (s *DiskStore) Usage() Usage {
	return Usage{LiveBytes: s.StreamLen(), Segments: 1}
}
