package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"distlog/internal/disk"
	"distlog/internal/loadassign"
	"distlog/internal/nvram"
	"distlog/internal/record"
	"distlog/internal/storage"
	"distlog/internal/transport"
	"distlog/internal/wire"
)

// replyFirstEndpoint makes every request lose the race the session used
// to assume it would win: Send does not return until the receive pump
// has been handed a packet — the reply — and has had time to route it.
// It is what a fast loopback socket does to a caller that is descheduled
// between sending a datagram and registering for its answer.
type replyFirstEndpoint struct {
	transport.Endpoint
	handed chan struct{} // one token per packet Recv has returned
}

func (e *replyFirstEndpoint) Recv(timeout time.Duration) (transport.Packet, error) {
	p, err := e.Endpoint.Recv(timeout)
	if err == nil {
		select {
		case e.handed <- struct{}{}:
		default:
		}
	}
	return p, err
}

func (e *replyFirstEndpoint) Send(to string, data []byte) error {
	const typeOffset = 3 // magic, version, then the type byte
	awaitsReply := len(data) > typeOffset &&
		(wire.Type(data[typeOffset]) == wire.TSyn || wire.Type(data[typeOffset]).IsRequest())
	if awaitsReply {
		for len(e.handed) > 0 {
			<-e.handed
		}
	}
	err := e.Endpoint.Send(to, data)
	if awaitsReply && err == nil {
		select {
		case <-e.handed:
			time.Sleep(2 * time.Millisecond) // the pump has the reply: let it deliver
		case <-time.After(100 * time.Millisecond): // a lost packet is the protocol's to retry
		}
	}
	return err
}

// TestReplyBeforeSendReturns is the regression test for the
// send-then-register race in call, handshake and openStream: with the
// reply reaching the pump before Send returns, every one of them used
// to drop it and wait out a full call timeout (the handshake then gave
// up). Registered before sending, none of them notices.
func TestReplyBeforeSendReturns(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	const callTimeout = 400 * time.Millisecond
	open := func() (*ReplicatedLog, error) {
		return c.openClient(1, 2, func(cfg *Config) {
			cfg.Endpoint = &replyFirstEndpoint{Endpoint: cfg.Endpoint, handed: make(chan struct{}, 1)}
			cfg.CallTimeout = callTimeout
		})
	}
	start := time.Now()
	l, err := open()
	if err != nil {
		t.Fatalf("Open with replies outrunning Send: %v", err)
	}
	lsn, err := l.ForceLog([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	// A second incarnation reads the record back over a stream.
	l, err = open()
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if data, err := l.ReadLog(lsn); err != nil || string(data) != "x" {
		t.Fatalf("ReadLog = %q, %v", data, err)
	}
	if elapsed := time.Since(start); elapsed >= callTimeout {
		t.Fatalf("two opens, a force and a read took %v: some reply was dropped and waited out a %v call timeout", elapsed, callTimeout)
	}
}

// tinyDiskStore is a DiskStore over a disk of a few small tracks: it
// fills after a few kilobytes.
func tinyDiskStore(t *testing.T) storage.Store {
	t.Helper()
	g := disk.DefaultGeometry()
	g.Cylinders, g.TracksPerCylinder, g.TrackSize = 2, 2, 512
	d, err := disk.New(g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := storage.NewDiskStore(d, nvram.New(2*g.TrackSize))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFullStoreFailsOverThenFailsLoudly fills the disks under a log's
// write set. The servers must refuse the writes in a way the client
// acts on — it moves to the spare at once, as it does off a draining
// server — and when the last place to write is full too, Force must
// return an error. It must never block: before the fix a full server
// answered a streamed write with an error reply nobody was waiting
// for, and the client found out one retransmission timeout at a time.
func TestFullStoreFailsOverThenFailsLoudly(t *testing.T) {
	names := []string{"s1", "s2", "s3"}
	c := newCluster(t, names...)
	// The two servers the client will choose get tiny disks, the spare
	// keeps its memory store.
	writeSet := loadassign.Pick(1, 2, names)
	for _, name := range writeSet {
		c.stop(name)
		c.stores[name] = tinyDiskStore(t)
		c.start(name)
	}
	const callTimeout = 200 * time.Millisecond
	const retries = 2
	l := mustOpen(t, c, 1, 2, func(cfg *Config) { cfg.CallTimeout, cfg.Retries = callTimeout, retries })
	defer l.Close()
	if ws := l.WriteSet(); !sameSet(ws, writeSet) {
		t.Fatalf("write set %v, expected the tiny-disk servers %v", ws, writeSet)
	}

	// Every forced write returns within the bound, whatever it returns.
	const bound = (retries + 1) * callTimeout
	payload := make([]byte, 200)
	forced := func() error {
		t.Helper()
		done := make(chan error, 1)
		start := time.Now()
		go func() {
			_, err := l.ForceLog(payload)
			done <- err
		}()
		select {
		case err := <-done:
			if elapsed := time.Since(start); elapsed > bound {
				t.Fatalf("ForceLog took %v (result %v), want within %v", elapsed, err, bound)
			}
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("ForceLog blocked on a full store")
			return nil
		}
	}
	var err error
	writes := 0
	for ; err == nil && writes < 200; writes++ {
		err = forced()
	}
	if err == nil {
		t.Fatalf("%d forced writes of %d bytes never filled two %d-byte disks", writes, len(payload), 4*512)
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ForceLog with every reachable disk full = %v, want ErrUnavailable", err)
	}
	st := l.Stats()
	if st.Failovers == 0 {
		t.Fatal("the first disk to fill never caused a failover to the spare")
	}
	t.Logf("%d writes before the log ran out of disks; %d failovers; final write set %v", writes, st.Failovers, l.WriteSet())
}

// TestIntervalListLongerThanOnePacket restarts a log more often than
// one interval-list reply can describe (every restart adds an interval
// under a new epoch; a packet holds 56). The servers used to answer
// with the tail of the list only, and the next incarnation read the
// oldest records back as never written — silently. The list is now
// fetched page by page.
func TestIntervalListLongerThanOnePacket(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2)
	written := writeForced(t, l, 40)
	l.Close()
	for i := 0; i < wire.MaxIntervalsPerPacket+5; i++ {
		l = mustOpen(t, c, 1, 2)
		l.Close()
	}
	l = mustOpen(t, c, 1, 2)
	defer l.Close()
	for _, name := range c.names {
		if n := len(c.stores[name].Intervals(1)); n > 0 && n <= wire.MaxIntervalsPerPacket {
			t.Fatalf("%s holds %d intervals: the list still fits one packet, the test proves nothing", name, n)
		}
	}
	for lsn, want := range written {
		rec, err := l.ReadRecord(lsn)
		if err != nil {
			t.Fatalf("ReadRecord(%d): %v", lsn, err)
		}
		if !rec.Present || string(rec.Data) != string(want) {
			t.Fatalf("LSN %d = %v after %d restarts, want %q", lsn, rec, wire.MaxIntervalsPerPacket+7, want)
		}
	}
}

// writeForcedSized appends count records of size bytes, forcing every
// tenth, and returns what was written per LSN.
func writeForcedSized(t *testing.T, l *ReplicatedLog, count, size int) map[record.LSN][]byte {
	t.Helper()
	written := make(map[record.LSN][]byte)
	for i := 0; i < count; i++ {
		data := make([]byte, size)
		copy(data, fmt.Sprintf("rec-%d", i))
		lsn, err := l.WriteLog(data)
		if err != nil {
			t.Fatal(err)
		}
		written[lsn] = data
		if (i+1)%10 == 0 {
			if err := l.Force(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	return written
}

// TestCursorCreditWindowLossyHolderStopped runs a forward scan long
// enough to live on granted credit — several windows of chunks — over a
// network that drops, duplicates and reorders, and stops the holder
// serving it partway. The scan must deliver every position exactly
// once, in order, resuming on the other holder from the last in-order
// LSN: no gap, no duplicate, no restart from the beginning.
func TestCursorCreditWindowLossyHolderStopped(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	l := mustOpen(t, c, 1, 2, func(cfg *Config) { cfg.Delta = 16 })
	defer l.Close()
	// ~1300 bytes a chunk, 4 records a chunk: ~500 chunks, four windows.
	written := writeForcedSized(t, l, 2000, 300)
	end := l.EndOfLog()
	ws := l.WriteSet()
	before := l.Stats()

	c.net.SetFaults(transport.Faults{DropProb: 0.01, DupProb: 0.05, MaxDelay: time.Millisecond})
	defer c.net.SetFaults(transport.Faults{})

	cur, err := l.OpenCursor(1, Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	for want := record.LSN(1); want <= end; want++ {
		if want == end/2 {
			// Whichever holder is serving, one of the two goes away.
			c.stop(ws[0])
		}
		rec, err := cur.Next()
		if err != nil {
			t.Fatalf("Next at %d: %v", want, err)
		}
		if rec.LSN != want {
			t.Fatalf("got LSN %d, want %d (gap or duplicate)", rec.LSN, want)
		}
		if data, ok := written[want]; ok && (!rec.Present || string(rec.Data) != string(data)) {
			t.Fatalf("LSN %d payload differs", want)
		}
	}
	if _, err := cur.Next(); !errors.Is(err, ErrBeyondEnd) {
		t.Fatalf("Next past end = %v, want ErrBeyondEnd", err)
	}
	st := l.Stats()
	streams := st.CursorStreams - before.CursorStreams
	restarts := st.StreamRestarts - before.StreamRestarts
	t.Logf("%d records, %d streams, %d restarts", end, streams, restarts)
	// One stream plus one per loss or holder switch — nothing like the
	// one-per-128-LSNs of carved tasks, and each resumes where the last
	// stopped or the scan would have been out of sequence above.
	if streams > 40 {
		t.Fatalf("%d streams for one scan", streams)
	}
	var chunks uint64
	for _, srv := range c.servers {
		chunks += srv.Stats().StreamPackets
	}
	if chunks <= streamWindow {
		t.Fatalf("surviving servers sent %d chunks: the scan never outran its initial credit", chunks)
	}
}

// TestStreamAcrossEpochSegmentsRejectsStaleCopy: after a restart the
// log is one stretch on one holder set crossing two epoch segments —
// the old records, then the re-copied tail and markers under the new
// epoch. A holder that lost the install (it comes back with the old
// epoch's copies of the tail) serves the stretch in a single stream;
// every record is checked against the epoch its own LSN must carry, so
// the stream is cut exactly at the first re-copied LSN and the other
// holder serves from there.
func TestStreamAcrossEpochSegmentsRejectsStaleCopy(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	const delta = 4
	l1 := mustOpen(t, c, 1, 2, func(cfg *Config) { cfg.Delta = delta })
	writeForced(t, l1, 30)
	high := l1.EndOfLog() // includes the δ markers of the first open
	ws := l1.WriteSet()
	sortedWS := append([]string(nil), ws...)
	sort.Strings(sortedWS)
	first, second := sortedWS[0], sortedWS[1] // scans try holders in this order

	// What `first` holds now, before the restart, is the stale state.
	stale := storage.NewMemStore()
	for lsn := record.LSN(1); lsn <= high; lsn++ {
		rec, err := c.stores[first].Read(1, lsn)
		if err != nil {
			t.Fatal(err)
		}
		if err := stale.Append(1, rec); err != nil {
			t.Fatal(err)
		}
	}
	l1.Close()

	l2 := mustOpen(t, c, 1, 2, func(cfg *Config) { cfg.Delta = delta })
	defer l2.Close()
	firstRecopied := high - delta + 1
	if got := l2.WriteSet(); !sameSet(got, ws) {
		t.Fatalf("write set moved from %v to %v", ws, got)
	}

	// `first` reboots having lost the install.
	c.stop(first)
	c.stores[first] = stale
	c.start(first)
	// The reboot reset the client's session with it; one throwaway read
	// takes the reset, so the scan below dials it afresh.
	if _, err := l2.ReadRecord(1); err != nil {
		t.Fatal(err)
	}

	beforeClient := l2.Stats()
	beforeSecond := c.servers[second].Stats().ReadsServed
	cur, err := l2.OpenCursor(1, Forward)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	end := l2.EndOfLog()
	for want := record.LSN(1); want <= end; want++ {
		rec, err := cur.Next()
		if err != nil {
			t.Fatalf("Next at %d: %v", want, err)
		}
		wantEpoch := l1.Epoch()
		if want >= firstRecopied {
			wantEpoch = l2.Epoch()
		}
		if rec.LSN != want || rec.Epoch != wantEpoch {
			t.Fatalf("got <%d,%d>, want <%d,%d>", rec.LSN, rec.Epoch, want, wantEpoch)
		}
	}
	st := l2.Stats()
	if got := st.CursorStreams - beforeClient.CursorStreams; got != 2 {
		t.Fatalf("%d streams, want 2: the stale holder's, cut short, and the other's", got)
	}
	if got := st.StreamRestarts - beforeClient.StreamRestarts; got != 1 {
		t.Fatalf("%d stream restarts, want 1", got)
	}
	// The second holder was asked for exactly the LSNs from the first
	// re-copied one on: the cut fell at the right LSN.
	if got, want := c.servers[second].Stats().ReadsServed-beforeSecond, uint64(end-firstRecopied+1); got != want {
		t.Fatalf("second holder served %d records, want %d (LSNs %d..%d)", got, want, firstRecopied, end)
	}
}
