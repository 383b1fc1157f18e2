package recman

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// hookLog runs a hook at every Force, before the force takes effect.
type hookLog struct {
	*testLog
	mu      sync.Mutex
	onForce func()
}

func (l *hookLog) Force() error {
	l.mu.Lock()
	hook := l.onForce
	l.mu.Unlock()
	if hook != nil {
		hook()
	}
	return l.testLog.Force()
}

func (l *hookLog) setHook(fn func()) {
	l.mu.Lock()
	l.onForce = fn
	l.mu.Unlock()
}

// TestCheckpointForcesOnceThenWritesPages pins the cost and the order
// of a checkpoint's page cleaning: however many pages are dirty, the
// log is forced once for all of them (it used to be forced once per
// dirty key), and no page reaches the stable store before that force —
// the WAL rule, applied to the batch.
func TestCheckpointForcesOnceThenWritesPages(t *testing.T) {
	modes(t, func(t *testing.T, opts Options) {
		log := &hookLog{testLog: newTestLog()}
		stable := NewStableStore()
		e := openEngine(t, log, stable, opts)
		const keys = 50
		for i := 0; i < keys; i++ {
			txn := e.Begin()
			if err := txn.Set(fmt.Sprintf("k%d", i), int64(i+1)); err != nil {
				t.Fatal(err)
			}
			if err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		}

		forces := 0
		log.setHook(func() {
			forces++
			if forces == 1 {
				if snap := stable.Snapshot(); len(snap) != 0 {
					t.Errorf("%d pages written before the log was forced", len(snap))
				}
			}
		})
		if err := e.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		log.setHook(nil)
		// One force covers every dirty page; the second makes the
		// checkpoint record itself stable.
		if forces != 2 {
			t.Fatalf("checkpoint over %d dirty keys forced the log %d times, want 2", keys, forces)
		}
		if snap := stable.Snapshot(); len(snap) != keys {
			t.Fatalf("%d pages clean after the checkpoint, want %d", len(snap), keys)
		}
		if got := e.Stats().Flushes; got != keys {
			t.Fatalf("Flushes = %d, want %d", got, keys)
		}
	})
}

// TestCheckpointIsSharpUnderConcurrentBegin is the regression test for
// a checkpoint that was not the sharp cut recovery takes it for: page
// cleaning releases the engine lock to force the log, and a transaction
// that began in that window logged its updates below the checkpoint
// record without having its pages cleaned — after a crash, recovery
// discarded those updates as "already reflected" and the committed
// transaction was lost. Begin now waits at the gate until the
// checkpoint record is in the log.
func TestCheckpointIsSharpUnderConcurrentBegin(t *testing.T) {
	log := &hookLog{testLog: newTestLog()}
	stable := NewStableStore()
	e := openEngine(t, log, stable, Options{})
	txn := e.Begin()
	if err := txn.Set("before", 1); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	// Park the checkpoint inside its page-cleaning force.
	inFlush := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	log.setHook(func() {
		once.Do(func() {
			close(inFlush)
			<-release
		})
	})
	ckptDone := make(chan error, 1)
	go func() { ckptDone <- e.Checkpoint() }()
	<-inFlush

	// A committer arrives mid-checkpoint.
	straddlerDone := make(chan error, 1)
	began := make(chan struct{})
	go func() {
		txn := e.Begin()
		close(began)
		if err := txn.Set("straddler", 7); err != nil {
			straddlerDone <- err
			return
		}
		straddlerDone <- txn.Commit()
	}()
	select {
	case <-began:
		t.Error("Begin returned while a checkpoint was cleaning pages: its updates will sit below the checkpoint record")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-ckptDone; err != nil {
		t.Fatal(err)
	}
	if err := <-straddlerDone; err != nil {
		t.Fatal(err)
	}

	// Crash and recover: the transaction that arrived mid-checkpoint
	// committed, so it must be there.
	log.setHook(nil)
	log.crash()
	e2 := openEngine(t, log, stable, Options{})
	if got := e2.Get("straddler"); got != 7 {
		t.Fatalf("straddler = %d after crash recovery, want 7: the committed transaction was lost across the checkpoint", got)
	}
	if got := e2.Get("before"); got != 1 {
		t.Fatalf("before = %d after crash recovery, want 1", got)
	}
}
