package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"distlog"
	"distlog/internal/record"
	"distlog/internal/storage"
	"distlog/internal/wire"
)

func TestPercentileAndSampleCountRule(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // 1..100, unsorted
		s = append(s, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{50, 50}, {90, 90}, {99, 99}, {1, 1}} {
		if got := s.p(c.q); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.q, got, c.want)
		}
	}
	if got := (samples{7}).p(99); got != 7 {
		t.Errorf("p99 of one sample = %v, want that sample", got)
	}
	if got := (samples{}).p(50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	// p99 needs ten samples beyond it: 1000 samples leave exactly ten.
	if !supported(1000, 99) || supported(999, 99) {
		t.Errorf("supported(1000,99)=%v supported(999,99)=%v, want true false", supported(1000, 99), supported(999, 99))
	}
	if !supported(20, 50) || supported(19, 50) {
		t.Errorf("a median needs 20 samples to have ten beyond it")
	}
}

func TestSelfTimeOnHandBuiltTree(t *testing.T) {
	// A commit [0,100) with a force [10,90) inside it; the force has two
	// overlapping packets in flight [20,50) and [40,60), and one that
	// sticks out of it, [80,120).
	commit, force := iv{0, 100}, iv{10, 90}
	packets := []iv{{20, 50}, {40, 60}, {80, 120}}
	if got := selfTime(commit, unionOf([]iv{force})); got != 20 {
		t.Errorf("commit self time = %d, want 20", got)
	}
	if got := selfTime(force, unionOf(packets)); got != 80-(40+10) {
		t.Errorf("force self time = %d, want 30: overlap counted once, overhang not at all", got)
	}
	if got := selfTime(commit, nil); got != 100 {
		t.Errorf("self time without children = %d, want the whole span", got)
	}

	a := unionOf([]iv{{0, 10}, {5, 20}, {30, 40}, {40, 45}, {60, 60}})
	if want := (ivset{{0, 20}, {30, 45}}); !reflect.DeepEqual(a, want) {
		t.Fatalf("unionOf = %v, want %v", a, want)
	}
	b := ivset{{8, 32}, {44, 50}}
	if got, want := a.intersect(b), (ivset{{8, 20}, {30, 32}, {44, 45}}); !reflect.DeepEqual(got, want) {
		t.Errorf("intersect = %v, want %v", got, want)
	}
	if got, want := a.subtract(b), (ivset{{0, 8}, {32, 44}}); !reflect.DeepEqual(got, want) {
		t.Errorf("subtract = %v, want %v", got, want)
	}
	if got := a.within(15, 35); got != 5+5 {
		t.Errorf("within(15,35) = %d, want 10", got)
	}
	// The two exclusive parts of a always add up to a.
	if got, whole := a.intersect(b).within(0, 100)+a.subtract(b).within(0, 100), a.within(0, 100); got != whole {
		t.Errorf("parts sum to %d, whole is %d", got, whole)
	}
}

// storeScript drives one Store through appends, forces, reads, a staged
// copy, a truncation and the errors on the way, and returns everything
// it observed.
func storeScript(s distlog.Store) []string {
	var log []string
	note := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	const c = record.ClientID(9)
	for lsn := record.LSN(1); lsn <= 6; lsn++ {
		note("append %d: %v", lsn, s.Append(c, record.Record{LSN: lsn, Epoch: 1, Present: true, Data: []byte{byte(lsn), 0xAB}}))
	}
	note("append regress: %v", s.Append(c, record.Record{LSN: 2, Epoch: 1, Present: true}))
	note("force: %v", s.Force())
	for _, lsn := range []record.LSN{1, 6, 7} {
		rec, err := s.Read(c, lsn)
		note("read %d: %v %v", lsn, rec, err)
	}
	note("stage: %v", s.StageCopy(c, record.Record{LSN: 6, Epoch: 2, Present: true, Data: []byte("copy")}))
	note("install: %v", s.InstallCopies(c, 2))
	rec, err := s.Read(c, 6)
	note("read 6 after install: %v %v", rec, err)
	note("truncate: %v", s.Truncate(c, 4))
	_, err = s.Read(c, 2)
	note("read 2 after truncate: %v", errors.Is(err, storage.ErrNotStored))
	note("intervals: %v", s.Intervals(c))
	last, epoch := s.LastKey(c)
	note("last key: %d %d", last, epoch)
	note("clients: %v", s.Clients())
	note("close: %v", s.Close())
	note("append after close: %v", s.Append(c, record.Record{LSN: 9, Epoch: 2, Present: true}))
	return log
}

func TestStoreWrapperPreservesBehaviour(t *testing.T) {
	tr := newTracer()
	tr.setPhase(phaseCommit)
	bare := storeScript(distlog.NewMemStore())
	wrapped := storeScript(tr.wrapStore(distlog.NewMemStore(), 0))
	if !reflect.DeepEqual(bare, wrapped) {
		t.Fatalf("wrapped store diverges from the bare one:\nbare:    %q\nwrapped: %q", bare, wrapped)
	}
	sp := tr.allSpans()
	if len(sp[spanAppend]) != 8 || len(sp[spanStoreForce]) != 1 || len(sp[spanStoreRead]) != 5 {
		t.Errorf("spans: %d appends, %d forces, %d reads; want 8, 1, 5",
			len(sp[spanAppend]), len(sp[spanStoreForce]), len(sp[spanStoreRead]))
	}
}

func TestEndpointWrapperDeliversIdenticalBytes(t *testing.T) {
	tr := newTracer()
	tr.setPhase(phaseCommit)
	net := distlog.NewNetwork(1)
	a := tr.wrapEndpoint(net.Endpoint("a"), nodeClient, 1)
	b := tr.wrapEndpoint(net.Endpoint("b"), nodeServer, 0)
	if a.Addr() != "a" || b.Addr() != "b" {
		t.Fatalf("wrapped addresses %q %q", a.Addr(), b.Addr())
	}
	frame := func(p wire.Packet) []byte {
		data, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	recs := []record.Record{{LSN: 41, Epoch: 3, Present: true, Data: []byte("one")}, {LSN: 42, Epoch: 3, Present: true, Data: []byte("two")}}
	sent := [][]byte{
		frame(wire.Packet{Type: wire.TForceLog, ConnID: 5, Seq: 1, ClientID: 1, Payload: (&wire.RecordsPayload{Epoch: 3, Records: recs}).Encode()}),
		frame(wire.Packet{Type: wire.TIntervalListReq, ConnID: 5, Seq: 2, ClientID: 1}),
		[]byte("not a frame at all"), // the wrapper must pass what it cannot decode
	}
	for _, data := range sent {
		if err := a.Send("b", data); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if got.From != "a" || !bytes.Equal(got.Data, data) {
			t.Fatalf("delivered %q from %q, sent %q from a", got.Data, got.From, data)
		}
	}
	// The server answers the force with an ack covering LSN 42: that ends
	// the dwell, and the interval-list reply ends the read dwell.
	ack := frame(wire.Packet{Type: wire.TNewHighLSN, ConnID: 5, Seq: 1, ClientID: 1, Payload: (&wire.WriteAckPayload{Stable: 42, Appended: 42}).Encode()})
	reply := frame(wire.Packet{Type: wire.TIntervalListResp, ConnID: 5, Seq: 2, RespTo: 2, ClientID: 1})
	for _, data := range [][]byte{ack, reply} {
		if err := b.Send("a", data); err != nil {
			t.Fatal(err)
		}
		if got, err := a.Recv(time.Second); err != nil || !bytes.Equal(got.Data, data) {
			t.Fatalf("reply delivered %q, %v", got.Data, err)
		}
	}
	if _, err := a.Recv(time.Millisecond); err == nil {
		t.Fatal("Recv returned a packet nobody sent")
	}
	if n := tr.finish(); n != 0 {
		t.Errorf("%d unmatched sends, want 0", n)
	}
	sp := tr.allSpans()
	if len(sp[spanOneWay]) != 4 || len(sp[spanSend]) != 5 {
		t.Errorf("%d one-way spans and %d sends, want 4 decodable packets matched and 5 sends", len(sp[spanOneWay]), len(sp[spanSend]))
	}
	if d := sp[spanForceDwell]; len(d) != 1 || d[0].lsn != 42 || d[0].node != 1 || d[0].server != 0 {
		t.Errorf("force dwell spans %+v, want one for client 1, LSN 42 on server 0", d)
	}
	if len(sp[spanReadDwell]) != 1 {
		t.Errorf("%d read dwell spans, want 1", len(sp[spanReadDwell]))
	}
	c := &tr.count[phaseCommit]
	if c.frames.Load() != 1 || c.frameRecords.Load() != 2 || c.packets[nodeClient][dirRecv][wire.TNewHighLSN].Load() != 1 {
		t.Errorf("counts: %d frames, %d records, %d acks at the client", c.frames.Load(), c.frameRecords.Load(), c.packets[nodeClient][dirRecv][wire.TNewHighLSN].Load())
	}
}

// lanRig is a three-server in-memory rig with one client and no delay.
func lanRig(t *testing.T, tr *tracer, opts distlog.EngineOptions) *rig {
	t.Helper()
	sp := &spec{name: "test", streams: 1, clients: 1, committers: 1, engine: opts}
	r, err := newRig(sp, 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.close)
	return r
}

type timerFunc func(txnID uint64)

func (timerFunc) update(time.Duration)                             {}
func (f timerFunc) commit(id uint64, _ time.Time, _ time.Duration) { f(id) }

func TestLogWrapperLearnsCommitLSN(t *testing.T) {
	tr := newTracer()
	tr.setPhase(phaseCommit)
	r := lanRig(t, tr, distlog.EngineOptions{CheckpointEvery: 3, TruncateOnCheckpoint: true})
	c := r.clients[0]
	gen := distlog.NewET1(distlog.DefaultET1Scale(), 1)
	for i := 0; i < 7; i++ {
		var lsn uint64
		err := applyET1Shaped(c.engine, "", gen.Next(), timerFunc(func(id uint64) { lsn = tr.takeCommitLSN(uint32(c.id), id) }))
		if err != nil {
			t.Fatal(err)
		}
		// The commit record is the last one the transaction writes; a
		// checkpoint record may follow it.
		if end := uint64(c.log.EndOfLog()); lsn == 0 || lsn > end || lsn < end-1 {
			t.Fatalf("txn %d: wrapper learned commit LSN %d, end of log is %d", i, lsn, end)
		}
	}
	// The engine still found the client's checkpoint capability behind
	// the wrapper: the prefix was truncated.
	if c.log.Truncated() == 0 {
		t.Error("no truncation: the wrapper hid the log's Checkpoint capability from the engine")
	}
	if st := c.engine.Stats(); st.Checkpoints == 0 {
		t.Errorf("engine took no checkpoint in %d commits", st.Commits)
	}
	sp := tr.allSpans()
	if len(sp[spanWriteLog]) < 7*7 || len(sp[spanForce]) < 7 {
		t.Errorf("%d WriteLog and %d Force spans for 7 transactions", len(sp[spanWriteLog]), len(sp[spanForce]))
	}
}

func TestShapedMatchesApplyET1(t *testing.T) {
	real := lanRig(t, nil, distlog.EngineOptions{}).clients[0]
	shaped := lanRig(t, nil, distlog.EngineOptions{}).clients[0]
	gen := distlog.NewET1(distlog.DefaultET1Scale(), 3)
	var pool []distlog.ET1Txn
	for i := 0; i < 20; i++ {
		txn := gen.Next()
		pool = append(pool, txn)
		if _, err := distlog.ApplyET1(real.engine, txn); err != nil {
			t.Fatal(err)
		}
		if err := applyET1Shaped(shaped.engine, "", txn, nil); err != nil {
			t.Fatal(err)
		}
	}
	a, b := real.engine.Stats(), shaped.engine.Stats()
	if a.LogRecords != b.LogRecords || a.LogBytes != b.LogBytes || a.Updates != b.Updates {
		t.Fatalf("ApplyET1 logged %d records / %d bytes / %d updates, the shaped copy %d / %d / %d",
			a.LogRecords, a.LogBytes, a.Updates, b.LogRecords, b.LogBytes, b.Updates)
	}
	for k, want := range expectedState("", pool, len(pool)) {
		if ga, gb := real.engine.Get(k), shaped.engine.Get(k); ga != want || gb != want {
			t.Fatalf("key %q: ApplyET1 left %d, the shaped copy %d, expectedState says %d", k, ga, gb, want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	set := func(tps float64) *setFile {
		m := make(map[string]metric)
		for _, d := range endToEnd {
			m[d.name] = metric{Value: 100, Unit: d.unit}
		}
		m["commit_tps"] = metric{Value: tps, Unit: "1/s"}
		return &setFile{Workloads: map[string]map[string]metric{"et1_lan": m}}
	}
	bound := endToEnd[1].bound // commit_tps
	if code := compareSets([]*setFile{set(100), set(100 * (1 + bound/2))}); code != 0 {
		t.Errorf("sets half a bound apart: exit %d, want 0", code)
	}
	if code := compareSets([]*setFile{set(100), set(100 * (1 + 2*bound))}); code != 1 {
		t.Errorf("sets two bounds apart: exit %d, want 1", code)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("why of %s is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jm, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default --seconds is %d", bj.RunSeconds, defaultSeconds)
	}
}

// TestSmokeAllWorkloads drives the four workloads end to end through
// the tracing wrappers, correctness check included, and et1_lan once
// more untraced, where it runs the real ApplyET1.
func TestSmokeAllWorkloads(t *testing.T) {
	out := t.TempDir()
	for i := range specs {
		res, err := runOne(&specs[i], smokePlan(), 1, true, out)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: result %+v", specs[i].name, res)
		}
		for _, suffix := range []string{"-layers.txt", "-spans.csv"} {
			if st, err := os.Stat(fmt.Sprintf("%s/%s-seed1%s", out, specs[i].name, suffix)); err != nil || st.Size() == 0 {
				t.Errorf("%s: traced run left no %s", specs[i].name, suffix)
			}
		}
	}
	res, err := runOne(&specs[0], smokePlan(), 1, false, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("untraced et1_lan reported %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
}
