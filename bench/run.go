package main

import (
	"errors"
	"fmt"
	"sync"
	"syscall"
	"time"

	"distlog"
	"distlog/internal/recman"
)

// plan is how one run divides its time. The driver's --seconds is the
// measured time: two thirds commit phase, one third restart phase.
type plan struct {
	setups       int           // set-ups timed; the last one is kept and measured on
	historyTxns  int           // transactions in the restart history
	warmup       time.Duration // committers running, nothing recorded
	commit       time.Duration
	restartIters int
	smoke        bool // sample-count and sizing rules report instead of abort
}

// restartsPerSecond sizes the restart phase from --seconds alone, not
// from how fast restarts turn out to be: every restart leaves δ
// not-present markers per stream in the history, so the n-th restart
// scans a slightly longer log than the first, and only a fixed count
// makes the median comparable between runs and between commits.
const restartsPerSecond = 5

func fullPlan(seconds int) plan {
	commit := time.Duration(seconds) * time.Second * 2 / 3
	restartSeconds := float64(seconds) - commit.Seconds()
	iters := int(restartSeconds * restartsPerSecond)
	if iters < 30 {
		iters = 30
	}
	return plan{setups: 7, historyTxns: 500, warmup: 2 * time.Second, commit: commit, restartIters: iters}
}

func smokePlan() plan {
	return plan{setups: 1, historyTxns: 50, warmup: 100 * time.Millisecond, commit: time.Second, restartIters: 3, smoke: true}
}

// committer is one closed-loop goroutine: it issues its next transaction
// only when the previous commit has returned, as a TP node's committer
// waits for its force.
type committer struct {
	client *clientNode
	prefix string
	pool   []distlog.ET1Txn
	done   int // transactions committed, over every phase
}

// history is the fixed log the restart phase recovers, under its own
// ClientID so commit-phase traffic never extends it.
type history struct {
	dirty    map[string]int64 // the stable store as the crash left it
	txns     int
	logBytes uint64
}

// run is one workload's execution state.
type run struct {
	sp   *spec
	pl   plan
	seed int64
	tr   *tracer
	rig  *rig
	cs   []*committer
	hist history
}

// phaseResult is what the commit phase measured.
type phaseResult struct {
	elapsed time.Duration
	lat     []time.Duration // Begin → Commit return, one per commit
	cpu     time.Duration   // process user+sys over the phase
}

func (p *phaseResult) commits() int { return len(p.lat) }
func (p *phaseResult) tps() float64 { return float64(len(p.lat)) / p.elapsed.Seconds() }

// setUp builds the cluster, opens the clients and writes the restart
// history; the returned duration is that work and nothing else.
func (r *run) setUp() (time.Duration, error) {
	start := time.Now()
	rg, err := newRig(r.sp, r.seed, r.tr)
	if err != nil {
		return 0, err
	}
	r.rig = rg
	if err := r.writeHistory(); err != nil {
		rg.close()
		return 0, err
	}
	d := time.Since(start)
	r.cs = r.cs[:0]
	for ci, c := range rg.clients {
		for k := 0; k < r.sp.committers; k++ {
			n := ci*r.sp.committers + k
			prefix := ""
			if !r.sp.realET1 {
				prefix = fmt.Sprintf("p%d/", n)
			}
			gen := distlog.NewET1(distlog.DefaultET1Scale(), r.seed*1000+int64(n))
			pool := make([]distlog.ET1Txn, txnPool)
			for i := range pool {
				pool[i] = gen.Next()
			}
			r.cs = append(r.cs, &committer{client: c, prefix: prefix, pool: pool})
		}
	}
	return d, nil
}

// writeHistory commits the restart history with as many closed-loop
// committers as the workload's clients run, then crashes its client and
// keeps the stable store as the crash left it.
func (r *run) writeHistory() error {
	stable := distlog.NewStableStore()
	c, err := r.rig.openClient(historyClientID, stable, distlog.EngineOptions{})
	if err != nil {
		return err
	}
	defer c.log.Close()
	n := r.sp.committers
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := distlog.NewET1(distlog.DefaultET1Scale(), r.seed*1000+900+int64(w))
			for i := w; i < r.pl.historyTxns && errs[w] == nil; i += n {
				if r.sp.realET1 {
					_, errs[w] = distlog.ApplyET1(c.engine, gen.Next())
				} else {
					errs[w] = applyET1Shaped(c.engine, fmt.Sprintf("h%d/", w), gen.Next(), nil)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("restart history: %w", err)
	}
	r.hist = history{dirty: stable.Snapshot(), txns: r.pl.historyTxns, logBytes: c.engine.Stats().LogBytes}
	return nil
}

// commitPhase runs every committer for d. With record false it is the
// warm-up: same load, nothing kept.
func (r *run) commitPhase(d time.Duration, record bool) (*phaseResult, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		res  phaseResult
		errs []error
	)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range r.cs {
		wg.Add(1)
		go func(c *committer) {
			defer wg.Done()
			var lat []time.Duration
			if record {
				lat = make([]time.Duration, 0, 1<<14)
			}
			var tm txnTimer
			if ct := r.tr.committerTimer(c.client.id); ct != nil {
				tm = ct
			}
			var err error
			for time.Now().Before(deadline) {
				txn := c.pool[c.done%len(c.pool)]
				t0 := time.Now()
				if r.sp.realET1 && r.tr == nil {
					_, err = distlog.ApplyET1(c.client.engine, txn)
				} else {
					err = applyET1Shaped(c.client.engine, c.prefix, txn, tm)
				}
				if err != nil {
					break
				}
				el := time.Since(t0)
				c.done++
				if record {
					lat = append(lat, el)
				}
				r.tr.txnDone(c.client.id, t0, el)
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			if err != nil {
				errs = append(errs, fmt.Errorf("client %d %scommit %d: %w", c.client.id, c.prefix, c.done+1, err))
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = processCPU() - cpu0
	return &res, errors.Join(errs...)
}

// restart times what a restarting node does after the crash that ended
// the previous incarnation: distlog.Open (handshakes, epoch, interval
// gather, copy of the doubtful tail), then distlog.OpenEngine over the
// stable store as the crash left it (scan, merge, apply).
func (r *run) restart() (s restartSample, err error) {
	restored := distlog.NewStableStore()
	for k, v := range r.hist.dirty {
		restored.Set(k, v)
	}
	t0 := time.Now()
	l, err := r.rig.openLog(historyClientID)
	if err != nil {
		return s, err
	}
	defer l.Close() // the crash the next restart recovers from
	s.open = time.Since(t0)
	var rl distlog.RecoveryLog = l
	var tl *tracedLog
	if r.tr != nil {
		tl = r.tr.wrapLog(l)
		rl = tl
	}
	t1 := time.Now()
	e, err := distlog.OpenEngine(rl, restored, distlog.EngineOptions{})
	if err != nil {
		return s, fmt.Errorf("recovery: %w", err)
	}
	s.recover = time.Since(t1)
	if got := e.Stats().RecoveredWinners; got != r.hist.txns {
		return s, fmt.Errorf("recovered %d winners, want %d", got, r.hist.txns)
	}
	s.stats = clientStats(l)
	if tl != nil {
		s.cursorWait = time.Duration(tl.cursorWait.Load())
		r.tr.add(span{kind: spanOpen, server: -1, node: uint32(historyClientID), start: int64(t0.Sub(r.tr.epoch)), dur: int64(s.open), client: uint64(historyClientID)})
		r.tr.add(span{kind: spanRecover, server: -1, node: uint32(historyClientID), start: int64(t1.Sub(r.tr.epoch)), dur: int64(s.recover), client: uint64(historyClientID)})
	}
	return s, nil
}

// verify crash-recovers every commit-phase client and checks that each
// acknowledged commit is there: every key of every partition holds
// exactly what its committer's acknowledged transactions sum to.
func (r *run) verify() error {
	for _, c := range r.rig.clients {
		c.log.Close() // crash: unforced records are gone, acknowledged ones may not be
	}
	byClient := make(map[distlog.ClientID]*clientNode)
	for i, c := range r.rig.clients {
		re, err := r.rig.openClient(c.id, c.stable, distlog.EngineOptions{})
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		r.rig.clients[i] = re
		byClient[c.id] = re
	}
	for _, c := range r.cs {
		e := byClient[c.client.id].engine
		for k, want := range expectedState(c.prefix, c.pool, c.done) {
			if got := e.Get(k); got != want {
				return fmt.Errorf("verify: client %d key %q = %d after crash recovery, want %d from %d acknowledged commits",
					c.client.id, k, got, want, c.done)
			}
		}
	}
	if r.sp.realET1 {
		for _, c := range r.rig.clients {
			if err := recman.BankInvariant(c.engine, distlog.DefaultET1Scale()); err != nil {
				return fmt.Errorf("verify: client %d: %w", c.id, err)
			}
		}
	}
	return nil
}

// processCPU is the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
