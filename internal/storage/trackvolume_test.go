package storage

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"distlog/internal/faultpoint"
	"distlog/internal/record"
)

// powerFail is what crashAt's armed fault point panics with.
type powerFail struct{}

// crashAt runs op with the fault point armed to stop it at its first
// hit, as a power failure would: op unwinds there and the store is
// abandoned without a Close.
func crashAt(t *testing.T, point string, op func()) {
	t.Helper()
	faultpoint.Arm(point, 1, func() { panic(powerFail{}) })
	defer faultpoint.Reset()
	defer func() {
		switch r := recover(); r.(type) {
		case powerFail:
		case nil:
			t.Fatalf("%s was never hit", point)
		default:
			panic(r)
		}
	}()
	op()
}

// ackedLog appends forced records for one client and remembers every
// record a Force acknowledged.
type ackedLog struct {
	c     record.ClientID
	next  record.LSN
	acked []record.Record
}

// add appends and forces one record; once Force returns it is acked.
func (l *ackedLog) add(t *testing.T, s *SegStore) {
	t.Helper()
	l.next++
	r := rec(l.next, 1, fmt.Sprintf("client-%d-record-%06d", l.c, l.next))
	if err := s.Append(l.c, r); err != nil {
		t.Fatal(err)
	}
	if err := s.Force(); err != nil {
		t.Fatal(err)
	}
	l.acked = append(l.acked, r)
}

// check reads every acknowledged record back byte-identical.
func (l *ackedLog) check(t *testing.T, s Store) {
	t.Helper()
	for _, want := range l.acked {
		got, err := s.Read(l.c, want.LSN)
		if err != nil {
			t.Fatalf("Read(%d): %v", want.LSN, err)
		}
		if got.Epoch != want.Epoch || got.Present != want.Present || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("Read(%d) = %v %q, want %v %q", want.LSN, got, got.Data, want, want.Data)
		}
	}
}

// A crash at each step of a seal or a compaction, with NVRAM and the
// disk kept, loses no acknowledged record.
func TestTrackStoreCrashAtSegmentPoints(t *testing.T) {
	for _, point := range []string{FPSegmentSeal, FPSegmentFold, FPSegmentDelete} {
		t.Run(point, func(t *testing.T) {
			// 64 tracks of 256 bytes: four 16-track slots of 4 KiB.
			rig := newTrackRig(t, trackGeometry(256, 64))
			rig.arch = newMemArchive()
			s := rig.open(t)
			l := &ackedLog{c: 5}
			for i := 0; i < 150; i++ {
				l.add(t, s)
			}
			crashAt(t, point, func() {
				if point == FPSegmentSeal {
					for {
						l.add(t, s)
					}
				}
				if _, err := s.CompactOnce(); err != nil {
					t.Fatal(err)
				}
			})
			rig.nv.Crash()
			rig.nv.Restart()

			s = rig.open(t)
			l.check(t, s)
			compactAll(t, s)
			for i := 0; i < 150; i++ {
				l.add(t, s)
			}
			compactAll(t, s)
			l.check(t, s)
			rig.crash(s)
			s = rig.open(t)
			defer s.Close()
			l.check(t, s)
		})
	}
}

// oracleRun applies each operation to a SegStore and to MemStore.
type oracleRun struct {
	t      *testing.T
	s      *SegStore
	oracle *MemStore
}

func (o *oracleRun) do(fn func(Store) error) {
	o.t.Helper()
	for _, st := range []Store{o.s, o.oracle} {
		if err := fn(st); err != nil {
			o.t.Fatal(err)
		}
	}
}

// agree requires every LSN up to high of every client to read the same
// from the store as from the oracle, and the interval lists and last
// keys to match.
func (o *oracleRun) agree(clients []record.ClientID, high map[record.ClientID]record.LSN) {
	o.t.Helper()
	for _, c := range clients {
		if got, want := fmt.Sprint(o.s.Intervals(c)), fmt.Sprint(o.oracle.Intervals(c)); got != want {
			o.t.Fatalf("client %d: intervals %s, oracle %s", c, got, want)
		}
		gl, ge := o.s.LastKey(c)
		wl, we := o.oracle.LastKey(c)
		if gl != wl || ge != we {
			o.t.Fatalf("client %d: last key %d@%d, oracle %d@%d", c, gl, ge, wl, we)
		}
		for lsn := record.LSN(1); lsn <= high[c]+1; lsn++ {
			got, gerr := o.s.Read(c, lsn)
			want, werr := o.oracle.Read(c, lsn)
			if (gerr == nil) != (werr == nil) || (werr != nil && !errors.Is(gerr, werr)) {
				o.t.Fatalf("client %d: Read(%d) error %v, oracle %v", c, lsn, gerr, werr)
			}
			if gerr == nil && (got.Epoch != want.Epoch || !bytes.Equal(got.Data, want.Data)) {
				o.t.Fatalf("client %d: Read(%d) = %v %q, oracle %v %q", c, lsn, got, got.Data, want, want.Data)
			}
		}
	}
}

// A slot that compaction freed is written again by a younger segment.
// Its tracks past what the younger segment wrote still hold the older
// one; reopening must replay only what the slot table records.
func TestTrackStoreSlotReuseNeverReplaysOldSegment(t *testing.T) {
	// 16 tracks of 256 bytes: four 4-track slots of 1 KiB.
	g := trackGeometry(256, 16)
	rig := newTrackRig(t, g)
	o := &oracleRun{t: t, s: rig.open(t), oracle: NewMemStore()}
	const c = record.ClientID(2)
	var lsn record.LSN
	for round := 0; round < 12; round++ {
		for i := 0; i < 20; i++ {
			lsn++
			r := rec(lsn, 1, fmt.Sprintf("round-%02d-%04d", round, lsn))
			o.do(func(s Store) error { return s.Append(c, r) })
		}
		o.do(func(s Store) error { return s.Truncate(c, lsn-5) })
		compactAll(t, o.s)
	}
	// The active segment's first track is written; the rest of its
	// slot still holds a reclaimed segment.
	for i := 0; i < 9; i++ {
		lsn++
		r := rec(lsn, 1, fmt.Sprintf("tail-%04d", lsn))
		o.do(func(s Store) error { return s.Append(c, r) })
	}
	if w := rig.d.Stats().TrackWrites; w <= uint64(g.NumTracks()) {
		t.Fatalf("%d track writes on a %d-track disk: no slot was reused", w, g.NumTracks())
	}
	high := map[record.ClientID]record.LSN{c: lsn}
	o.agree([]record.ClientID{c}, high)
	for i := 0; i < 2; i++ {
		rig.crash(o.s)
		o.s = rig.open(t)
		o.agree([]record.ClientID{c}, high)
	}
	o.s.Close()
}

// The store outlasts its disk: three times the disk's capacity goes
// through it, truncated and compacted as a server's compactor would,
// and it never reports ErrDiskFull. With an archive, one client that
// never truncates keeps its whole history readable from the cold tier.
func TestTrackStoreOutlastsItsDisk(t *testing.T) {
	// 128 tracks of 15 KiB: four 32-track slots, 1.9 MiB in all.
	g := trackGeometry(15*1024, 128)
	for _, keeper := range []bool{false, true} {
		t.Run(fmt.Sprintf("keeper=%v", keeper), func(t *testing.T) {
			rig := newTrackRig(t, g)
			if keeper {
				rig.arch = newMemArchive()
			}
			o := &oracleRun{t: t, s: rig.open(t), oracle: NewMemStore()}
			clients := []record.ClientID{1, 2, 3}
			if keeper {
				clients = append(clients, 100)
			}
			high := map[record.ClientID]record.LSN{}
			payload := bytes.Repeat([]byte("0123456789abcdef"), 12)
			var pushed int64
			for step := 0; pushed < 3*g.Capacity(); step++ {
				c := clients[step%len(clients)]
				high[c]++
				r := record.Record{LSN: high[c], Epoch: 1, Present: true, Data: append([]byte(fmt.Sprintf("%d-%d:", c, high[c])), payload...)}
				o.do(func(s Store) error { return s.Append(c, r) })
				pushed += int64(r.EncodedSize())
				if step%500 != 499 {
					continue
				}
				if err := o.s.Force(); err != nil {
					t.Fatal(err)
				}
				for _, c := range clients[:3] {
					o.do(func(s Store) error { return s.Truncate(c, high[c]-20) })
				}
				compactAll(t, o.s)
			}
			if boundaryOf(o.s) < 2*g.Capacity() {
				t.Fatalf("boundary %d after pushing %d bytes through a %d-byte disk", boundaryOf(o.s), pushed, g.Capacity())
			}
			o.agree(clients, high)
			rig.crash(o.s)
			o.s = rig.open(t)
			defer o.s.Close()
			o.agree(clients, high)
		})
	}
}

func TestTrackStoreFullDiskFailsLoudly(t *testing.T) {
	// Four 1-track slots: the fifth segment finds no room.
	rig := newTrackRig(t, trackGeometry(512, 4))
	s := rig.open(t)
	defer s.Close()
	var err error
	for i := record.LSN(1); err == nil && i < 100; i++ {
		err = s.Append(1, rec(i, 1, "0123456789012345678901234567890123456789"))
	}
	if !errors.Is(err, ErrDiskFull) {
		t.Fatalf("filling the disk = %v, want ErrDiskFull", err)
	}
	// Truncation alone frees nothing until compaction returns a slot.
	lsn, _ := s.LastKey(1)
	if err := s.Truncate(1, lsn); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, rec(lsn+1, 1, "x")); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("append before compaction = %v, want ErrDiskFull", err)
	}
	if n := compactAll(t, s); n == 0 {
		t.Fatal("compaction reclaimed nothing")
	}
	if err := s.Append(1, rec(lsn+1, 1, "x")); err != nil {
		t.Fatalf("append after compaction: %v", err)
	}
}

// Compaction frees slots while appends seal segments into new ones; the
// slot table is shared between them.
func TestTrackStoreCompactsBesideAppends(t *testing.T) {
	// 1024 tracks of 64 bytes: sixteen 64-track slots of 4 KiB, room
	// for every append even if compaction reclaims nothing.
	rig := newTrackRig(t, trackGeometry(64, 1024))
	rig.arch = newMemArchive()
	s := rig.open(t)
	// Each appender holds at LSN hold until the compactor has reclaimed
	// a segment, so a reclaim always falls between appends however the
	// goroutines are scheduled: once all of them wait there, every
	// client has truncated its first 240 records and the first segments
	// hold nothing live.
	const clients, perClient, hold = 3, 400, 300
	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	reclaimed := make(chan struct{})
	for c := record.ClientID(1); c <= clients; c++ {
		wg.Add(1)
		go func(c record.ClientID) {
			defer wg.Done()
			for i := record.LSN(1); i <= perClient; i++ {
				if i == hold {
					select {
					case <-reclaimed:
					case <-time.After(10 * time.Second):
						errs <- fmt.Errorf("client %d: no segment reclaimed while appends held", c)
						return
					}
				}
				err := s.Append(c, rec(i, 1, fmt.Sprintf("c%d-%d", c, i)))
				if err == nil && i%50 == 0 {
					err = s.Truncate(c, i-10)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	stop := make(chan struct{})
	compacted := make(chan struct{})
	go func() {
		defer close(compacted)
		held := true
		for {
			select {
			case <-stop:
				return
			default:
			}
			ok, err := s.CompactOnce()
			if err != nil {
				errs <- err
				return
			}
			if ok && held {
				close(reclaimed)
				held = false
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-compacted
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if boundaryOf(s) == 0 {
		t.Fatal("compaction reclaimed nothing beside the appends")
	}
	for i := 0; i < 2; i++ {
		for c := record.ClientID(1); c <= clients; c++ {
			recs, err := s.ReadRange(c, perClient-10, perClient, 1<<20)
			if err != nil || len(recs) != 11 {
				t.Fatalf("client %d: %d records, %v", c, len(recs), err)
			}
			for _, r := range recs {
				if want := fmt.Sprintf("c%d-%d", c, r.LSN); string(r.Data) != want {
					t.Fatalf("client %d LSN %d = %q, want %q", c, r.LSN, r.Data, want)
				}
			}
		}
		rig.crash(s)
		s = rig.open(t)
	}
	s.Close()
}
