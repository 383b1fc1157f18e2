// Package idgen implements the replicated increasing unique identifier
// generator of Appendix I of "Distributed Logging for Transaction
// Processing" (SIGMOD 1987). The generator issues the epoch numbers
// that the replicated log uses to distinguish records written in
// different client crash epochs.
//
// The generator's state — a single integer — is replicated on R state
// representatives, each providing atomic Read and Write of its copy.
// NewID reads ceil((R+1)/2) representatives, writes a value higher
// than any read to ceil(R/2) representatives, and returns the value
// written. Because every read quorum intersects every earlier write
// quorum, identifiers are strictly increasing across invocations, even
// across client crashes; a crash between the read and write phases can
// at worst cause values to be skipped.
//
// Only a single client process may use a given generator at one time
// (the same restriction the replicated log itself carries).
package idgen

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Representative stores one copy of the generator state and provides
// operations that are atomic at that representative. Representatives
// normally live on log server nodes; this package provides local
// implementations, and the server/wire packages provide a remote one.
type Representative interface {
	// ReadState returns the representative's current value. A
	// never-written representative returns 0.
	ReadState() (uint64, error)
	// WriteState durably replaces the representative's value.
	WriteState(v uint64) error
}

// Errors returned by the generator.
var (
	ErrNoReps      = errors.New("idgen: generator has no representatives")
	ErrReadQuorum  = errors.New("idgen: could not read a quorum of representatives")
	ErrWriteQuorum = errors.New("idgen: could not write a quorum of representatives")
)

// Generator is a replicated increasing unique identifier generator.
type Generator struct {
	mu   sync.Mutex
	reps []Representative
}

// New returns a generator over the given representatives.
func New(reps ...Representative) (*Generator, error) {
	if len(reps) == 0 {
		return nil, ErrNoReps
	}
	return &Generator{reps: reps}, nil
}

// ReadQuorum returns the number of representatives NewID must read:
// ceil((R+1)/2).
func (g *Generator) ReadQuorum() int { return (len(g.reps) + 2) / 2 }

// WriteQuorum returns the number of representatives NewID must write:
// ceil(R/2).
func (g *Generator) WriteQuorum() int { return (len(g.reps) + 1) / 2 }

// NewID returns an identifier strictly greater than any identifier
// previously returned by this generator (across all prior lifetimes of
// the client). It fails when a read or write quorum cannot be reached,
// leaving the generator unchanged or partially advanced; a failed
// NewID never hands out an identifier.
//
// Each phase is one parallel fan-out, so with remote representatives
// NewID costs two round trips however many representatives there are,
// and a dead one delays it only when the quorum needs it.
func (g *Generator) NewID() (uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()

	// Phase 1: read every representative at once and stop at the first
	// ceil((R+1)/2) answers. A read still in flight after that is
	// abandoned to finish on its own; it changes nothing.
	type readResult struct {
		rep int
		v   uint64
		err error
	}
	reads := make(chan readResult, len(g.reps)) // one slot per reader: an abandoned one never blocks
	for i, r := range g.reps {
		go func(i int, r Representative) {
			v, err := r.ReadState()
			reads <- readResult{i, v, err}
		}(i, r)
	}
	var (
		max      uint64
		firstErr error
		live     []int // representatives that answered the read
	)
	for answered := 0; answered < len(g.reps) && len(live) < g.ReadQuorum(); answered++ {
		res := <-reads
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		live = append(live, res.rep)
		if res.v > max {
			max = res.v
		}
	}
	if len(live) < g.ReadQuorum() {
		return 0, quorumError(ErrReadQuorum, len(live), g.ReadQuorum(), firstErr)
	}

	// Phase 2: write a higher value to ceil(R/2) representatives. Any
	// overlapping assignment of reads and writes may be used, so the
	// first wave goes to representatives that just answered, and only if
	// one of them fails does a second wave try everyone else. Every write
	// issued is awaited: a write left in flight could land after a later
	// NewID's and take a representative back to the older value.
	next := max + 1
	sort.Ints(live)
	first := live[:g.WriteQuorum()]
	written, firstErr := g.writeAll(first, next)
	if written < g.WriteQuorum() {
		tried := make(map[int]bool, len(first))
		for _, i := range first {
			tried[i] = true
		}
		var rest []int
		for i := range g.reps {
			if !tried[i] {
				rest = append(rest, i)
			}
		}
		more, err := g.writeAll(rest, next)
		written += more
		if firstErr == nil {
			firstErr = err
		}
	}
	if written < g.WriteQuorum() {
		return 0, quorumError(ErrWriteQuorum, written, g.WriteQuorum(), firstErr)
	}
	return next, nil
}

// writeAll writes v to the given representatives concurrently, waits
// for all of them, and returns how many succeeded and the first error.
func (g *Generator) writeAll(reps []int, v uint64) (int, error) {
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for k, i := range reps {
		wg.Add(1)
		go func(k int, r Representative) {
			defer wg.Done()
			errs[k] = r.WriteState(v)
		}(k, g.reps[i])
	}
	wg.Wait()
	ok := 0
	var firstErr error
	for _, err := range errs {
		if err == nil {
			ok++
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return ok, firstErr
}

// quorumError wraps both the quorum sentinel and the first underlying
// cause so callers can test for either with errors.Is.
func quorumError(sentinel error, got, need int, cause error) error {
	if cause == nil {
		return fmt.Errorf("%w: %d of %d needed", sentinel, got, need)
	}
	return fmt.Errorf("%w: %d of %d needed: %w", sentinel, got, need, cause)
}

// MemRep is an in-memory representative, for tests and single-process
// deployments. Its state survives as long as the Go object does, which
// models a representative's non-volatile storage when the harness
// keeps the object across simulated crashes.
type MemRep struct {
	mu   sync.Mutex
	v    uint64
	fail error // when non-nil, all operations fail with this error
}

// NewMemRep returns an in-memory representative holding 0.
func NewMemRep() *MemRep { return &MemRep{} }

// ReadState implements Representative.
func (m *MemRep) ReadState() (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return 0, m.fail
	}
	return m.v, nil
}

// WriteState implements Representative.
func (m *MemRep) WriteState(v uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fail != nil {
		return m.fail
	}
	m.v = v
	return nil
}

// SetFailure makes subsequent operations fail with err (nil restores
// service), for availability tests.
func (m *MemRep) SetFailure(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fail = err
}

// Value returns the stored state, bypassing failure injection.
func (m *MemRep) Value() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.v
}
