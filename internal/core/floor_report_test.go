package core

import (
	"slices"
	"testing"
	"time"

	"distlog/internal/record"
)

// TestFloorReReportedOnReconnect is the regression test for a lost
// truncation report: TTruncatePoint is fire-and-forget, so a server
// that is down when Checkpoint reports the floor misses it — and
// before the fix it held (and archived) the dead prefix until the
// *next* checkpoint happened to run. The client must re-assert its
// floor whenever it (re)establishes a session.
func TestFloorReReportedOnReconnect(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()

	writeForced(t, l, 30)
	ws := l.WriteSet()
	if len(ws) == 0 {
		t.Fatal("no write set")
	}
	victim := ws[0]

	// The victim goes down holding the client's full prefix; the
	// checkpoint's floor report to it lands on a dead endpoint.
	c.stop(victim)
	if _, err := l.Checkpoint([]byte("ckpt")); err != nil {
		t.Fatalf("checkpoint with a write-set member down: %v", err)
	}
	floor := l.Truncated()
	if floor <= 1 {
		t.Fatalf("checkpoint did not advance the truncation point (floor %d)", floor)
	}

	// Reboot the victim over its surviving store and bring the client
	// back to it. Migrate proves each target with a round trip, so the
	// session the client still caches for the victim draws the rebooted
	// server's reset and is re-dialed — and the fresh handshake reports
	// the floor — before Migrate returns. Retry briefly in case an
	// attempt races the reboot itself.
	c.start(victim)
	target := []string{victim}
	for _, name := range l.WriteSet() {
		if name != victim && len(target) < 2 {
			target = append(target, name)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := l.Migrate(target); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("migrating back onto the rebooted server: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The re-established session must have re-reported the floor: the
	// victim's store drops the prefix without waiting for another
	// checkpoint. (Truncate clamps to keep the last record, so a store
	// whose stream ends below the floor settles at its own last key.)
	st := c.stores[victim]
	want := floor
	if last, _ := st.LastKey(1); last < want {
		want = last
	}
	for {
		ivs := st.Intervals(record.ClientID(1))
		if len(ivs) == 0 || ivs[0].Low >= want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebooted server still advertises LSN %d below the floor %d: the reconnect never re-reported the truncation point", ivs[0].Low, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMigrateOntoDownServerFails: a session the client still caches
// for a server that has gone down is no proof the server is there.
// Migrate's anchor is fire-and-forget, so before the fix a migration
// onto the dead server with nothing outstanding to force reported
// success and left the write set on it — the same race that let a
// migration onto a rebooted server finish before the server's reset
// arrived, so no fresh session (and no floor report) ever followed.
func TestMigrateOntoDownServerFails(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	defer l.Close()

	writeForced(t, l, 10)
	victim := l.WriteSet()[0]
	c.stop(victim)
	// The force fails over off the stopped server; the client's session
	// to it stays cached.
	writeForced(t, l, 10)
	before := l.WriteSet()
	if slices.Contains(before, victim) {
		t.Fatalf("write set %v still holds the stopped server %s", before, victim)
	}

	if err := l.Migrate([]string{victim, before[0]}); err == nil {
		t.Fatalf("Migrate onto the stopped server %s succeeded; write set now %v", victim, l.WriteSet())
	}
	if got := l.WriteSet(); !slices.Equal(got, before) {
		t.Fatalf("failed migration moved the write set: %v -> %v", before, got)
	}
}
