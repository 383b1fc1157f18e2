package storage

import (
	"sync"
	"sync/atomic"

	"distlog/internal/telemetry"
)

// ForceGroup coalesces concurrent Force calls into shared rounds —
// server-side group force. Section 4.1 sizes a log server for 50
// clients × 10 TPS and NVRAM makes every force a memory-speed no-op;
// a SegStore has no NVRAM, so without coalescing 50 concurrent
// ForceLog handlers would queue 50 fsyncs back to back. A ForceGroup
// runs at most one underlying Force at a time: the first caller leads
// a round immediately, and every caller that arrives while that round
// is in flight joins one shared successor round, led by the first
// joiner when the in-flight fsync completes.
//
// The invariant the server's acknowledgments depend on: Force returns
// nil only after an underlying Force that STARTED after the call was
// made has completed. Records appended before the call are therefore
// covered by the round the caller observes — an acked NewHighLSN
// implies a completed Force covering it.
type ForceGroup struct {
	force func() error

	// Rounds counts underlying forces run; Coalesced counts callers
	// that shared a round led by another caller. Nil counters no-op.
	Rounds    *telemetry.Counter
	Coalesced *telemetry.Counter

	// Handoff, when non-nil, runs on a successor leader between the
	// completion of the in-flight force and the start of its own —
	// the server arms its crash-between-coalesced-forces faultpoint
	// here.
	Handoff func()

	mu   sync.Mutex
	cur  *forceRound // in flight (or just completed, pending handoff)
	next *forceRound // waiting for cur; its first joiner leads it
	pool sync.Pool   // spent *forceRound, so steady-state rounds don't allocate
}

// forceRound is one shared underlying Force. Rounds are pooled: refs
// counts the goroutines still holding the round (leader + waiters, and
// the successor leader waiting on it), and the last one out returns it.
// Refs are only taken under g.mu while the round is provably live (in
// flight, or published as g.next), so a pooled round is never revived.
type forceRound struct {
	wg   sync.WaitGroup // leader holds it up until err is published
	err  error
	refs atomic.Int32
}

// NewForceGroup returns a coalescer over force (typically a
// Store.Force method value).
func NewForceGroup(force func() error) *ForceGroup {
	return &ForceGroup{force: force}
}

// Force makes all records appended before the call stable, sharing
// the underlying Force with concurrent callers where possible. Every
// member of a round observes the round's error.
func (g *ForceGroup) Force() error {
	g.mu.Lock()
	cur := g.cur
	if cur == nil {
		// Idle: lead a round immediately.
		r := g.getRound()
		g.cur = r
		g.mu.Unlock()
		return g.run(r)
	}
	// A force is in flight; join (or open) the successor round.
	r := g.next
	if r == nil {
		r = g.getRound()
		g.next = r
		cur.refs.Add(1) // hold cur across the wait below
		g.mu.Unlock()
		// First joiner leads the successor once the in-flight force
		// completes.
		cur.wg.Wait()
		g.putRound(cur)
		if g.Handoff != nil {
			g.Handoff()
		}
		g.mu.Lock()
		g.cur = r
		if g.next == r {
			g.next = nil
		}
		g.mu.Unlock()
		return g.run(r)
	}
	g.Coalesced.Add(1)
	r.refs.Add(1)
	g.mu.Unlock()
	r.wg.Wait()
	err := r.err
	g.putRound(r)
	return err
}

// run executes the round's underlying force and releases its members.
func (g *ForceGroup) run(r *forceRound) error {
	g.Rounds.Add(1)
	err := g.force()
	r.err = err
	g.mu.Lock()
	if g.next == nil {
		// No successor queued: the group goes idle. (With a successor
		// queued, its leader performs the g.cur swap after waking, and
		// late arrivals meanwhile join the successor — never a
		// completed round. A take-ref on cur only happens with no
		// successor queued, which implies cur is still in flight, so a
		// completed round's refcount can only fall.)
		g.cur = nil
	}
	g.mu.Unlock()
	r.wg.Done()
	g.putRound(r)
	return err
}

func (g *ForceGroup) getRound() *forceRound {
	r, _ := g.pool.Get().(*forceRound)
	if r == nil {
		r = new(forceRound)
	}
	r.wg.Add(1)
	r.refs.Store(1)
	return r
}

// putRound drops the caller's reference; the last holder recycles the
// round. Waiters read r.err before calling this.
func (g *ForceGroup) putRound(r *forceRound) {
	if r.refs.Add(-1) == 0 {
		r.err = nil
		g.pool.Put(r)
	}
}
