package main

import (
	"fmt"
	"runtime"
	"time"

	"distlog"
	"distlog/internal/recman"
	"distlog/internal/retention"
)

// refShare is the part of a traced run's commit phase that runs with
// recording off, on the same rig and through the same wrappers: the
// untraced reference trace.overhead_pct and process.* are measured
// against.
const refShare = 0.3

// counters is every cumulative count the harness reads from the
// system's own Stats calls; phases are measured as differences.
type counters struct {
	engine  recman.Stats
	client  distlog.ClientStats
	server  distlog.ServerStats
	reclaim retention.CompactorStats
}

func (r *run) snapshot() counters {
	var c counters
	for _, cl := range r.rig.clients {
		es := cl.engine.Stats()
		c.engine.Commits += es.Commits
		c.engine.LogRecords += es.LogRecords
		c.engine.LogBytes += es.LogBytes
		cs := clientStats(cl.log)
		c.client.Forces += cs.Forces
		c.client.ForceRounds += cs.ForceRounds
		c.client.GroupCommits += cs.GroupCommits
		c.client.Resends += cs.Resends
		c.client.StreamFrames += cs.StreamFrames
		c.client.StreamTimeouts += cs.StreamTimeouts
		c.client.StreamBackoffs += cs.StreamBackoffs
	}
	for _, s := range r.rig.servers {
		ss := s.srv.Stats()
		c.server.PacketsReceived += ss.PacketsReceived
		c.server.Forces += ss.Forces
		c.server.ForceRounds += ss.ForceRounds
		c.server.ForcesCoalesced += ss.ForcesCoalesced
		c.server.QueueSheds += ss.QueueSheds
		c.server.BusySent += ss.BusySent
		c.server.StreamPackets += ss.StreamPackets
		if s.comp != nil {
			cs := s.comp.Stats()
			c.reclaim.Reclaimed += cs.Reclaimed
			c.reclaim.Retired += cs.Retired
			c.reclaim.Deferred += cs.Deferred
		}
	}
	return c
}

// restartSample is one iteration of the restart phase.
type restartSample struct {
	open, recover, cursorWait time.Duration
	stats                     distlog.ClientStats
}

// measurement is everything one run observed, before it is reduced to
// metrics.
type measurement struct {
	sp       *spec
	pl       plan
	setups   []time.Duration
	commit   *phaseResult // the measured commit phase (the traced slice on a traced run)
	ref      *phaseResult // traced runs: the reference slice, recording off
	before   counters     // around commit
	after    counters
	refMem   [2]runtime.MemStats // around ref
	restarts []restartSample
	restartC [2]counters // around the restart phase
	usage    distlog.StoreUsage
	// histBytes is the log data of the restart history: with the clients'
	// own LogBytes, every user byte the final rig was ever given.
	histBytes uint64

	// Traced runs only.
	tr         *tracer
	wire       wireCost
	commitWin  iv // the traced commit slice and the restart phase, in trace time
	restartWin iv
}

// execute runs one workload once and returns what it measured. The rig
// is gone when it returns.
func execute(sp *spec, pl plan, seed int64, traced bool) (*measurement, error) {
	r := &run{sp: sp, pl: pl, seed: seed}
	m := &measurement{sp: sp, pl: pl}
	if traced {
		r.tr = newTracer()
		m.tr = r.tr
		m.wire = measureWireCost()
	}
	for i := 0; i < pl.setups; i++ {
		if r.rig != nil {
			r.rig.close()
		}
		d, err := r.setUp()
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		m.setups = append(m.setups, d)
	}
	defer func() { r.rig.close() }()
	r.rig.applyDelay()

	if _, err := r.commitPhase(pl.warmup, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC() // start every measured phase from the same heap

	commit := pl.commit
	if traced {
		ref := time.Duration(float64(pl.commit) * refShare)
		commit -= ref
		runtime.ReadMemStats(&m.refMem[0])
		res, err := r.commitPhase(ref, true)
		if err != nil {
			return nil, fmt.Errorf("reference slice: %w", err)
		}
		runtime.ReadMemStats(&m.refMem[1])
		m.ref = res
	}
	m.before = r.snapshot()
	m.commitWin.lo = r.tr.setPhase(phaseCommit)
	res, err := r.commitPhase(commit, true)
	m.commitWin.hi = r.tr.setPhase(phaseOff)
	if err != nil {
		return nil, fmt.Errorf("commit phase: %w", err)
	}
	m.commit = res
	m.after = r.snapshot()

	m.restartC[0] = m.after
	m.restartWin.lo = r.tr.setPhase(phaseRestart)
	for i := 0; i < pl.restartIters; i++ {
		s, err := r.restart()
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i+1, err)
		}
		m.restarts = append(m.restarts, s)
	}
	m.restartWin.hi = r.tr.setPhase(phaseOff)
	m.restartC[1] = r.snapshot()
	m.histBytes = r.hist.logBytes

	for _, s := range r.rig.servers {
		if s.usage != nil {
			u := s.usage.Usage()
			m.usage.LiveBytes += u.LiveBytes
			m.usage.ArchivedBytes += u.ArchivedBytes
		}
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	return m, m.check()
}

// check applies the rules that make a run's figures worth keeping; a
// smoke run is too short to meet them and skips them.
func (m *measurement) check() error {
	if m.pl.smoke {
		return nil
	}
	if n := m.commit.commits(); !supported(n, 99) {
		return fmt.Errorf("%s: %d commits in the commit phase do not leave %d beyond p99", m.sp.name, n, minBeyond)
	}
	if m.sp.udpFsync {
		if got := m.after.reclaim.Reclaimed - m.before.reclaim.Reclaimed; got < 3 {
			return fmt.Errorf("%s is mis-sized: %d segments reclaimed in the commit phase, want at least 3", m.sp.name, got)
		}
	}
	return nil
}

// endToEndValues reduces a measurement to the end-to-end metrics.
func (m *measurement) endToEndValues() map[string]float64 {
	lat := durationsUS(m.commit.lat).sorted()
	var setups, restarts []float64
	for _, d := range m.setups {
		setups = append(setups, d.Seconds())
	}
	for _, s := range m.restarts {
		restarts = append(restarts, float64(s.open+s.recover)/float64(time.Millisecond))
	}
	return map[string]float64{
		"setup_s":        median(setups),
		"commit_tps":     m.commit.tps(),
		"commit_p50_us":  percentile(lat, 50),
		"commit_p99_us":  percentile(lat, 99),
		"restart_p50_ms": median(restarts),
	}
}

// attempted is how many operations the run counted: every commit of the
// measured phase and every restart.
func (m *measurement) attempted() int { return m.commit.commits() + len(m.restarts) }
