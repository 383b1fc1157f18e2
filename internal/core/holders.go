package core

import (
	"slices"
	"sort"

	"distlog/internal/record"
)

// holders tracks which servers store each log record: the merged
// interval lists gathered at initialization, overlaid by the intervals
// written (and fully acknowledged) during this epoch. This cache is
// what lets every ReadLog be served by a single ServerReadLog call
// (Section 3.1.2: the voting for all reads happens once, at client
// initialization).
type holders struct {
	merged *record.MergedList
	live   []liveEntry
}

type liveEntry struct {
	iv      record.Interval
	servers []string
}

func newHolders(merged *record.MergedList) *holders {
	return &holders{merged: merged}
}

// add records that servers now hold [low, high] at the given epoch. The
// set is stored sorted, as the merged view keeps its sets, so a stretch
// runs on across the seam between the two.
func (h *holders) add(epoch record.Epoch, low, high record.LSN, servers []string) {
	if n := len(h.live); n > 0 {
		last := &h.live[n-1]
		if last.iv.Epoch == epoch && last.iv.High+1 == low && sameSet(last.servers, servers) {
			last.iv.High = high
			return
		}
	}
	cp := make([]string, len(servers))
	copy(cp, servers)
	sort.Strings(cp)
	h.live = append(h.live, liveEntry{iv: record.Interval{Epoch: epoch, Low: low, High: high}, servers: cp})
}

// sameSet reports whether b is a reordering of a (both duplicate-free,
// as server sets are).
func sameSet(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}

// serversFor returns the servers known to hold the winning copy of
// lsn. Live entries are searched newest-first (they carry the highest
// epochs), then the merged initialization view.
func (h *holders) serversFor(lsn record.LSN) []string {
	for i := len(h.live) - 1; i >= 0; i-- {
		if h.live[i].iv.Contains(lsn) {
			return h.live[i].servers
		}
	}
	return h.merged.Servers(lsn)
}

// epochFor returns the epoch of the winning copy of lsn, or 0 when the
// record is unknown.
func (h *holders) epochFor(lsn record.LSN) record.Epoch {
	for i := len(h.live) - 1; i >= 0; i-- {
		if h.live[i].iv.Contains(lsn) {
			return h.live[i].iv.Epoch
		}
	}
	return h.merged.EpochAt(lsn)
}

// covered reports whether any server is known to hold lsn.
func (h *holders) covered(lsn record.LSN) bool {
	return h.epochFor(lsn) != 0
}

// segment returns the maximal interval around lsn whose every LSN
// resolves to the same holder set and epoch as lsn itself, with that
// holder set — the unit a cursor fetch task can cover with one server
// choice. ok is false when no server holds lsn. Live entries are
// non-overlapping (the write path appends strictly increasing acked
// intervals), but they shadow the merged initialization view, so a
// merged segment is clipped against every live entry before being
// returned.
func (h *holders) segment(lsn record.LSN) (record.Interval, []string, bool) {
	for i := len(h.live) - 1; i >= 0; i-- {
		if h.live[i].iv.Contains(lsn) {
			return h.live[i].iv, h.live[i].servers, true
		}
	}
	iv, servers, ok := h.merged.Segment(lsn)
	if !ok {
		return record.Interval{}, nil, false
	}
	for _, le := range h.live {
		o := le.iv
		if o.High < lsn && o.High+1 > iv.Low {
			iv.Low = o.High + 1
		}
		if o.Low > lsn && o.Low-1 < iv.High {
			iv.High = o.Low - 1
		}
	}
	return iv, servers, true
}

// stretch returns the longest run of consecutive LSNs from lsn toward
// bound (on either side of it) that lsn's holder set covers without a
// break, as the run's winning-epoch segments in ascending LSN order,
// with that holder set: what one server can stream in a single request,
// however many epochs' worth of segments it crosses. lsn must be
// covered.
func (h *holders) stretch(lsn, bound record.LSN) ([]record.Interval, []string) {
	iv, servers, _ := h.segment(lsn)
	forward := bound >= lsn
	var segs []record.Interval
	for {
		if forward {
			iv.Low, iv.High = max(iv.Low, lsn), min(iv.High, bound)
		} else {
			iv.Low, iv.High = max(iv.Low, bound), min(iv.High, lsn)
		}
		segs = append(segs, iv)
		next := iv.High + 1
		if !forward {
			next = iv.Low - 1
		}
		if (forward && next > bound) || (!forward && next < bound) || next == 0 {
			break
		}
		niv, nservers, ok := h.segment(next)
		if !ok || !equalStrings(nservers, servers) {
			break
		}
		iv = niv
	}
	if !forward {
		slices.Reverse(segs)
	}
	return segs, servers
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
