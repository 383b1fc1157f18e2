package server

import (
	"testing"
	"time"

	"distlog/internal/record"
	"distlog/internal/storage"
	"distlog/internal/transport"
	"distlog/internal/wire"
)

// rig drives a server with raw protocol packets, checking conformance
// to the Figure 4.1 interface without the client library in the way.
type rig struct {
	t     *testing.T
	net   *transport.Network
	srv   *Server
	store storage.Store
	ep    transport.Endpoint // the "client" endpoint
	peer  *wire.Peer
}

func newRig(t *testing.T, mutate ...func(*Config)) *rig {
	t.Helper()
	net := transport.NewNetwork(5)
	store := storage.NewMemStore()
	cfg := Config{
		Name:     "srv",
		Store:    store,
		Endpoint: net.Endpoint("srv"),
		Epochs:   NewMemEpochHost(),
	}
	for _, m := range mutate {
		m(&cfg)
	}
	srv := New(cfg)
	srv.Start()
	t.Cleanup(srv.Stop)

	ep := net.Endpoint("cli")
	r := &rig{t: t, net: net, srv: srv, store: store, ep: ep}
	r.peer = wire.NewPeer(ep, "srv", 7, 1000, 0, time.Millisecond)
	return r
}

// recv waits for the next decodable packet.
func (r *rig) recv() *wire.Packet {
	r.t.Helper()
	raw, err := r.ep.Recv(2 * time.Second)
	if err != nil {
		r.t.Fatalf("recv: %v", err)
	}
	pkt, err := wire.Decode(raw.Data)
	if err != nil {
		r.t.Fatalf("decode: %v", err)
	}
	return &pkt
}

// handshake completes the three-way handshake.
func (r *rig) handshake() {
	r.t.Helper()
	seq, err := r.peer.Send(wire.TSyn, 0, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	pkt := r.recv()
	if pkt.Type != wire.TSynAck || pkt.RespTo != seq {
		r.t.Fatalf("expected SynAck to %d, got %+v", seq, pkt)
	}
	r.peer.SetEstablished()
	if _, err := r.peer.Send(wire.TAck, pkt.Seq, nil); err != nil {
		r.t.Fatal(err)
	}
}

// force sends a ForceLog with consecutive records starting at lsn.
func (r *rig) force(epoch record.Epoch, lsn record.LSN, n int) {
	r.t.Helper()
	var recs []record.Record
	for i := 0; i < n; i++ {
		recs = append(recs, record.Record{LSN: lsn + record.LSN(i), Epoch: epoch, Present: true, Data: []byte("d")})
	}
	p := wire.RecordsPayload{Epoch: epoch, Records: recs}
	if _, err := r.peer.Send(wire.TForceLog, 0, p.Encode()); err != nil {
		r.t.Fatal(err)
	}
}

func TestServerHandshake(t *testing.T) {
	r := newRig(t)
	r.handshake()
}

func TestServerRstForUnknownConnection(t *testing.T) {
	r := newRig(t)
	// Data before any Syn: server answers Rst.
	r.peer.SetEstablished() // locally pretend, to bypass the client-side gate
	p := wire.RecordsPayload{Epoch: 1, Records: []record.Record{{LSN: 1, Epoch: 1, Present: true}}}
	if _, err := r.peer.Send(wire.TForceLog, 0, p.Encode()); err != nil {
		t.Fatal(err)
	}
	if pkt := r.recv(); pkt.Type != wire.TRst {
		t.Fatalf("expected Rst, got %v", pkt.Type)
	}
}

func TestServerForceAcksNewHighLSN(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 7)
	pkt := r.recv()
	if pkt.Type != wire.TNewHighLSN {
		t.Fatalf("expected NewHighLSN, got %v", pkt.Type)
	}
	ack, err := wire.DecodeWriteAckPayload(pkt.Payload)
	if err != nil || ack.Stable != 7 {
		t.Fatalf("ack = %+v, %v", ack, err)
	}
	// Records are in the store.
	for lsn := record.LSN(1); lsn <= 7; lsn++ {
		if _, err := r.store.Read(7, lsn); err != nil {
			t.Fatalf("store.Read(%d): %v", lsn, err)
		}
	}
}

func TestServerDetectsGapAndNacks(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 3) // LSNs 1..3
	if pkt := r.recv(); pkt.Type != wire.TNewHighLSN {
		t.Fatalf("expected ack, got %v", pkt.Type)
	}
	// Jump to LSN 6: records 4..5 are missing.
	r.force(1, 6, 2)
	pkt := r.recv()
	if pkt.Type != wire.TMissingInterval {
		t.Fatalf("expected MissingInterval, got %v", pkt.Type)
	}
	mi, err := wire.DecodeIntervalPayload(pkt.Payload)
	if err != nil || mi.Low != 4 || mi.High != 5 {
		t.Fatalf("missing = %+v, %v", mi, err)
	}
	// The out-of-order records were not applied.
	if _, err := r.store.Read(7, 6); err == nil {
		t.Fatal("record 6 applied despite the gap")
	}
	// Client resends from the gap: all five arrive, ack advances to 7.
	r.force(1, 4, 4)
	pkt = r.recv()
	ack, err := wire.DecodeWriteAckPayload(pkt.Payload)
	if pkt.Type != wire.TNewHighLSN || err != nil || ack.Stable != 7 {
		t.Fatalf("after resend: %v %+v %v", pkt.Type, ack, err)
	}
	if s := r.srv.Stats(); s.MissingIntervals != 1 {
		t.Fatalf("MissingIntervals = %d", s.MissingIntervals)
	}
}

func TestServerNewIntervalSkipsGap(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 3)
	r.recv() // ack
	// Client switches to this server at LSN 10 (records 4..9 live
	// elsewhere): NewInterval tells the server to accept the jump.
	ni := wire.NewIntervalPayload{Epoch: 1, StartingLSN: 10}
	if _, err := r.peer.Send(wire.TNewInterval, 0, ni.Encode()); err != nil {
		t.Fatal(err)
	}
	r.force(1, 10, 2)
	pkt := r.recv()
	ack, err := wire.DecodeWriteAckPayload(pkt.Payload)
	if pkt.Type != wire.TNewHighLSN || err != nil || ack.Stable != 11 {
		t.Fatalf("after NewInterval: %v %+v %v", pkt.Type, ack, err)
	}
	// Interval list shows the two sequences.
	ivs := r.store.Intervals(7)
	if len(ivs) != 2 || ivs[0].High != 3 || ivs[1].Low != 10 {
		t.Fatalf("intervals = %v", ivs)
	}
}

func TestServerRetransmissionIdempotent(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 5)
	r.recv()
	// Full overlap resend (lost-ack recovery): server must re-ack, not
	// duplicate.
	r.force(1, 1, 5)
	pkt := r.recv()
	ack, err := wire.DecodeWriteAckPayload(pkt.Payload)
	if pkt.Type != wire.TNewHighLSN || err != nil || ack.Stable != 5 {
		t.Fatalf("re-ack: %v %+v %v", pkt.Type, ack, err)
	}
	ivs := r.store.Intervals(7)
	if len(ivs) != 1 || ivs[0].Low != 1 || ivs[0].High != 5 {
		t.Fatalf("intervals after resend = %v", ivs)
	}
	// Partial overlap.
	r.force(1, 3, 5) // 3..7; 3..5 already stored
	pkt = r.recv()
	ack, _ = wire.DecodeWriteAckPayload(pkt.Payload)
	if ack.Stable != 7 {
		t.Fatalf("ack after partial overlap = %d", ack.Stable)
	}
}

func TestServerIntervalListCall(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 4)
	r.recv()
	seq, err := r.peer.Send(wire.TIntervalListReq, 0, (&wire.IntervalListPayload{}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	pkt := r.recv()
	if pkt.Type != wire.TIntervalListResp || pkt.RespTo != seq {
		t.Fatalf("resp = %+v", pkt)
	}
	p, err := wire.DecodeIntervalListPayload(pkt.Payload)
	if err != nil || len(p.Intervals) != 1 || p.Intervals[0].High != 4 {
		t.Fatalf("intervals = %+v, %v", p, err)
	}
}

func TestServerReadForwardPacksRecords(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 10)
	r.recv()
	seq, _ := r.peer.Send(wire.TReadForwardReq, 0, (&wire.LSNPayload{LSN: 4}).Encode())
	pkt := r.recv()
	if pkt.Type != wire.TReadForwardResp || pkt.RespTo != seq {
		t.Fatalf("resp = %+v", pkt)
	}
	p, err := wire.DecodeRecordsPayload(pkt.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Records) < 2 || p.Records[0].LSN != 4 || p.Records[1].LSN != 5 {
		t.Fatalf("records = %v", p.Records)
	}
}

func TestServerReadBackward(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 10)
	r.recv()
	seq, _ := r.peer.Send(wire.TReadBackwardReq, 0, (&wire.LSNPayload{LSN: 5}).Encode())
	pkt := r.recv()
	if pkt.Type != wire.TReadBackwardResp || pkt.RespTo != seq {
		t.Fatalf("resp = %+v", pkt)
	}
	p, err := wire.DecodeRecordsPayload(pkt.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if p.Records[0].LSN != 5 || p.Records[1].LSN != 4 {
		t.Fatalf("records = %v", p.Records)
	}
	if last := p.Records[len(p.Records)-1]; last.LSN != 1 {
		t.Fatalf("backward read should stop at LSN 1, got %d", last.LSN)
	}
}

func TestServerReadNotStored(t *testing.T) {
	r := newRig(t)
	r.handshake()
	seq, _ := r.peer.Send(wire.TReadForwardReq, 0, (&wire.LSNPayload{LSN: 99}).Encode())
	pkt := r.recv()
	if pkt.Type != wire.TErrResp || pkt.RespTo != seq {
		t.Fatalf("resp = %+v", pkt)
	}
	p, err := wire.DecodeErrPayload(pkt.Payload)
	if err != nil || p.Code != wire.CodeNotStored {
		t.Fatalf("err payload = %+v, %v", p, err)
	}
}

func TestServerCopyLogAndInstall(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(3, 1, 9)
	r.recv()
	// Stage record 9 at epoch 4 plus a not-present marker 10.
	copies := wire.RecordsPayload{Epoch: 4, Records: []record.Record{
		{LSN: 9, Epoch: 4, Present: true, Data: []byte("copy")},
		{LSN: 10, Epoch: 4, Present: false},
	}}
	seq, _ := r.peer.Send(wire.TCopyLogReq, 0, copies.Encode())
	if pkt := r.recv(); pkt.Type != wire.TCopyLogResp || pkt.RespTo != seq {
		t.Fatalf("CopyLog resp = %+v", pkt)
	}
	install := (&wire.InstallPayload{Epoch: 4, Low: 9, High: 10}).Encode()
	seq, _ = r.peer.Send(wire.TInstallCopiesReq, 0, install)
	if pkt := r.recv(); pkt.Type != wire.TInstallCopiesResp || pkt.RespTo != seq {
		t.Fatalf("InstallCopies resp = %+v", pkt)
	}
	rec, err := r.store.Read(7, 9)
	if err != nil || rec.Epoch != 4 || string(rec.Data) != "copy" {
		t.Fatalf("record 9 = %v, %v", rec, err)
	}
	// Retried install acks idempotently.
	seq, _ = r.peer.Send(wire.TInstallCopiesReq, 0, install)
	if pkt := r.recv(); pkt.Type != wire.TInstallCopiesResp || pkt.RespTo != seq {
		t.Fatalf("retried InstallCopies resp = %+v", pkt)
	}
}

// TestServerRefusesInstallAheadOfItsCopies: an install that overtook
// one of its CopyLog frames is refused with the retryable CodeNotStaged
// and installs nothing — not acknowledged as the retransmission of an
// install already applied — and succeeds once the missing copy lands.
func TestServerRefusesInstallAheadOfItsCopies(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(3, 1, 9)
	r.recv()
	copyLog := func(recs ...record.Record) {
		t.Helper()
		seq, _ := r.peer.Send(wire.TCopyLogReq, 0, (&wire.RecordsPayload{Epoch: 4, Records: recs}).Encode())
		if pkt := r.recv(); pkt.Type != wire.TCopyLogResp || pkt.RespTo != seq {
			t.Fatalf("CopyLog resp = %+v", pkt)
		}
	}
	install := (&wire.InstallPayload{Epoch: 4, Low: 8, High: 10}).Encode()
	for _, staged := range [][]record.Record{
		nil, // the install arrives before any copy
		{{LSN: 8, Epoch: 4, Present: true, Data: []byte("c8")}, {LSN: 10, Epoch: 4}}, // LSN 9's frame still in flight
	} {
		if staged != nil {
			copyLog(staged...)
		}
		seq, _ := r.peer.Send(wire.TInstallCopiesReq, 0, install)
		pkt := r.recv()
		if pkt.Type != wire.TErrResp || pkt.RespTo != seq {
			t.Fatalf("early install with %d staged: resp %+v, want a refusal", len(staged), pkt)
		}
		if ep, err := wire.DecodeErrPayload(pkt.Payload); err != nil || ep.Code != wire.CodeNotStaged {
			t.Fatalf("early install with %d staged: %+v, %v, want CodeNotStaged", len(staged), ep, err)
		}
		if rec, err := r.store.Read(7, 8); err != nil || rec.Epoch != 3 {
			t.Fatalf("refused install changed LSN 8: %v, %v", rec, err)
		}
		if _, epoch := r.store.LastKey(7); epoch != 3 {
			t.Fatalf("refused install moved the client to epoch %d", epoch)
		}
	}
	copyLog(record.Record{LSN: 9, Epoch: 4, Present: true, Data: []byte("c9")})
	seq, _ := r.peer.Send(wire.TInstallCopiesReq, 0, install)
	if pkt := r.recv(); pkt.Type != wire.TInstallCopiesResp || pkt.RespTo != seq {
		t.Fatalf("install after the last copy: %+v", pkt)
	}
	for lsn, want := range map[record.LSN]string{8: "c8", 9: "c9"} {
		if rec, err := r.store.Read(7, lsn); err != nil || rec.Epoch != 4 || string(rec.Data) != want {
			t.Fatalf("LSN %d after install = %v, %v", lsn, rec, err)
		}
	}
}

// synAck sends a Syn and returns the SynAck's decoded payload.
func (r *rig) synAck() *wire.SynAckPayload {
	r.t.Helper()
	seq, err := r.peer.Send(wire.TSyn, 0, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	pkt := r.recv()
	if pkt.Type != wire.TSynAck || pkt.RespTo != seq {
		r.t.Fatalf("expected SynAck to %d, got %+v", seq, pkt)
	}
	p, err := wire.DecodeSynAckPayload(pkt.Payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return p
}

// TestServerSynAckCarriesFirstReads: the SynAck answers a restarting
// client's first two reads — its interval list and its epoch
// representative — as they stand when the Syn is handled, a
// retransmitted Syn of the live session included.
func TestServerSynAckCarriesFirstReads(t *testing.T) {
	r := newRig(t)
	if err := r.srv.cfg.Epochs.Rep(7).WriteState(5); err != nil {
		t.Fatal(err)
	}
	if err := r.store.Append(7, record.Record{LSN: 1, Epoch: 2, Present: true}); err != nil {
		t.Fatal(err)
	}
	h := r.synAck()
	if h.EpochState != wire.HelloEpoch || h.Epoch != 5 || len(h.Intervals) != 1 || h.Intervals[0] != (record.Interval{Epoch: 2, Low: 1, High: 1}) {
		t.Fatalf("SynAck = %+v", h)
	}
	r.peer.SetEstablished()
	if err := r.srv.cfg.Epochs.Rep(7).WriteState(6); err != nil {
		t.Fatal(err)
	}
	if h := r.synAck(); h.Epoch != 6 || len(h.Intervals) != 1 {
		t.Fatalf("retransmitted Syn: SynAck = %+v, want the fresh epoch 6", h)
	}
	if got := r.srv.Stats().Sessions; got != 1 {
		t.Fatalf("%d sessions after a retransmitted Syn, want 1", got)
	}

	bare := newRig(t, func(c *Config) { c.Epochs = nil })
	if h := bare.synAck(); h.EpochState != wire.HelloNoEpochHost || h.Epoch != 0 || len(h.Intervals) != 0 {
		t.Fatalf("SynAck without an epoch host = %+v", h)
	}
}

func TestServerEpochReadWrite(t *testing.T) {
	r := newRig(t)
	r.handshake()
	seq, _ := r.peer.Send(wire.TEpochReadReq, 0, (&wire.EpochValuePayload{}).Encode())
	pkt := r.recv()
	p, err := wire.DecodeEpochValuePayload(pkt.Payload)
	if pkt.Type != wire.TEpochReadResp || err != nil || p.Value != 0 {
		t.Fatalf("fresh epoch read: %+v, %v", pkt, err)
	}
	seq, _ = r.peer.Send(wire.TEpochWriteReq, 0, (&wire.EpochValuePayload{Value: 9}).Encode())
	if pkt := r.recv(); pkt.Type != wire.TEpochWriteResp || pkt.RespTo != seq {
		t.Fatalf("epoch write resp = %+v", pkt)
	}
	_, _ = r.peer.Send(wire.TEpochReadReq, 0, (&wire.EpochValuePayload{}).Encode())
	pkt = r.recv()
	p, _ = wire.DecodeEpochValuePayload(pkt.Payload)
	if p.Value != 9 {
		t.Fatalf("epoch after write = %d", p.Value)
	}
}

func TestServerLoadShedding(t *testing.T) {
	overloaded := true
	r := newRig(t, func(cfg *Config) {
		cfg.Overloaded = func() bool { return overloaded }
	})
	r.handshake()
	r.force(1, 1, 3)
	// No ack arrives — the message was shed — but a Busy congestion
	// NACK tells the streaming client to back its window off.
	if pkt := r.recv(); pkt.Type != wire.TBusy {
		t.Fatalf("expected Busy, got %v", pkt.Type)
	}
	if raw, err := r.ep.Recv(100 * time.Millisecond); err == nil {
		pkt, _ := wire.Decode(raw.Data)
		t.Fatalf("expected silence after Busy, got %v", pkt.Type)
	}
	if s := r.srv.Stats(); s.Shed != 1 || s.BusySent != 1 {
		t.Fatalf("Shed = %d, BusySent = %d", s.Shed, s.BusySent)
	}
	// Reads are still served ("servers should make every effort to
	// reply to IntervalList and read calls").
	seq, _ := r.peer.Send(wire.TIntervalListReq, 0, (&wire.IntervalListPayload{}).Encode())
	if pkt := r.recv(); pkt.Type != wire.TIntervalListResp || pkt.RespTo != seq {
		t.Fatalf("IntervalList during overload = %+v", pkt)
	}
	// Load subsides: writes flow again.
	overloaded = false
	r.force(1, 1, 3)
	if pkt := r.recv(); pkt.Type != wire.TNewHighLSN {
		t.Fatalf("after overload: %v", pkt.Type)
	}
}

func TestServerDuplicatePacketDropped(t *testing.T) {
	r := newRig(t)
	r.handshake()
	// Build one ForceLog packet and deliver it twice (duplicated by the
	// network). The second copy must be ignored by sequence-number
	// duplicate detection.
	recs := []record.Record{{LSN: 1, Epoch: 1, Present: true, Data: []byte("once")}}
	p := wire.RecordsPayload{Epoch: 1, Records: recs}
	pkt := &wire.Packet{
		Type: wire.TForceLog, ConnID: 1000, Seq: 50, Alloc: 5000,
		ClientID: 7, Payload: p.Encode(),
	}
	data, err := pkt.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Match the rig peer's ConnID.
	pkt.ConnID = r.peer.ConnID
	data, _ = pkt.Encode()
	r.ep.Send("srv", data)
	r.ep.Send("srv", data) // duplicate
	// One ack for the first; the duplicate is silent.
	if pkt := r.recv(); pkt.Type != wire.TNewHighLSN {
		t.Fatalf("first: %v", pkt.Type)
	}
	if raw, err := r.ep.Recv(100 * time.Millisecond); err == nil {
		dup, _ := wire.Decode(raw.Data)
		t.Fatalf("duplicate produced %v", dup.Type)
	}
	if s := r.srv.Stats(); s.PacketsDropped == 0 {
		t.Fatal("duplicate not counted as dropped")
	}
}

func TestServerNewIncarnationResetsStream(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 3)
	r.recv()
	// The client crashes and reconnects with a new ConnID, and its
	// first write jumps to LSN 9. The server must not silently adopt
	// the new position — a first message past its stored high (3) is
	// indistinguishable from one whose predecessors were lost in
	// flight, and adopting it would let the server acknowledge records
	// it never stored. The jump is a gap like any other: NACK it.
	r.peer = wire.NewPeer(r.ep, "srv", 7, r.peer.ConnID+1, 0, time.Millisecond)
	r.handshake()
	r.force(2, 9, 2)
	pkt := r.recv()
	mi, err := wire.DecodeIntervalPayload(pkt.Payload)
	if pkt.Type != wire.TMissingInterval || err != nil || mi.Low != 4 || mi.High != 8 {
		t.Fatalf("gap after reconnect: %v %+v %v", pkt.Type, mi, err)
	}
	// An explicit NewInterval re-anchors the stream (the missing
	// records live on other servers); the resent force is then
	// accepted and acknowledged.
	ni := wire.NewIntervalPayload{Epoch: 2, StartingLSN: 9}
	if _, err := r.peer.Send(wire.TNewInterval, 0, ni.Encode()); err != nil {
		t.Fatal(err)
	}
	r.force(2, 9, 2)
	pkt = r.recv()
	ack, err := wire.DecodeWriteAckPayload(pkt.Payload)
	if pkt.Type != wire.TNewHighLSN || err != nil || ack.Stable != 10 {
		t.Fatalf("re-anchored ack: %v %+v %v", pkt.Type, ack, err)
	}
}

func TestServerDuplicateSynKeepsSession(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 3)
	if pkt := r.recv(); pkt.Type != wire.TNewHighLSN {
		t.Fatalf("expected ack, got %v", pkt.Type)
	}
	// The client re-anchors the stream at LSN 9 (the skipped records
	// live on other servers).
	ni := wire.NewIntervalPayload{Epoch: 1, StartingLSN: 9}
	if _, err := r.peer.Send(wire.TNewInterval, 0, ni.Encode()); err != nil {
		t.Fatal(err)
	}
	// A duplicated Syn of the live connection arrives before the next
	// write — a retransmission or a network copy, same ConnID. The
	// server must answer it without resetting the session: a reset
	// would forget the NewInterval anchor and bounce the next write.
	if _, err := r.peer.Send(wire.TSyn, 0, nil); err != nil {
		t.Fatal(err)
	}
	if pkt := r.recv(); pkt.Type != wire.TSynAck {
		t.Fatalf("duplicate Syn: expected SynAck, got %v", pkt.Type)
	}
	r.force(1, 9, 2)
	pkt := r.recv()
	ack, err := wire.DecodeWriteAckPayload(pkt.Payload)
	if pkt.Type != wire.TNewHighLSN || err != nil || ack.Stable != 10 {
		t.Fatalf("write after duplicate Syn: %v %+v %v", pkt.Type, ack, err)
	}
}

func TestServerStaleSynRejectedKeepsLiveSession(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 3)
	if pkt := r.recv(); pkt.Type != wire.TNewHighLSN {
		t.Fatalf("expected ack, got %v", pkt.Type)
	}
	// The client re-dials with a higher ConnID (dial ConnIDs are
	// monotonic) and re-anchors its stream.
	stale := r.peer
	r.peer = wire.NewPeer(r.ep, "srv", 7, stale.ConnID+1, 0, time.Millisecond)
	r.handshake()
	ni := wire.NewIntervalPayload{Epoch: 1, StartingLSN: 9}
	if _, err := r.peer.Send(wire.TNewInterval, 0, ni.Encode()); err != nil {
		t.Fatal(err)
	}
	// A delayed Syn from the PREVIOUS incarnation arrives late. The
	// server must not supersede the live, higher-ConnID session with the
	// stale incarnation: doing so would forget the NewInterval anchor
	// and strand the live stream. It answers the stale ConnID with Rst
	// and keeps the session.
	if _, err := stale.Send(wire.TSyn, 0, nil); err != nil {
		t.Fatal(err)
	}
	pkt := r.recv()
	if pkt.Type != wire.TRst || pkt.ConnID != stale.ConnID {
		t.Fatalf("stale Syn: expected Rst to ConnID %d, got %v (ConnID %d)", stale.ConnID, pkt.Type, pkt.ConnID)
	}
	// The live session still holds the anchor: the next write is acked.
	r.force(1, 9, 2)
	pkt = r.recv()
	ack, err := wire.DecodeWriteAckPayload(pkt.Payload)
	if pkt.Type != wire.TNewHighLSN || err != nil || ack.Stable != 10 {
		t.Fatalf("write after stale Syn: %v %+v %v", pkt.Type, ack, err)
	}
}

func TestServerJanitorEvictionThenReconnect(t *testing.T) {
	// The migration-era reconnect interplay: the janitor evicts an idle
	// session mid-life, the client re-dials with a higher ConnID and
	// re-anchors, and a duplicated Syn of the NEW connection must keep
	// that session — the duplicate-Syn reset regression would forget the
	// fresh anchor exactly when a migrating client depends on it.
	r := newRig(t, func(cfg *Config) { cfg.SessionIdle = 50 * time.Millisecond })
	r.handshake()
	r.force(1, 1, 3)
	if pkt := r.recv(); pkt.Type != wire.TNewHighLSN {
		t.Fatalf("expected ack, got %v", pkt.Type)
	}
	// Idle past the horizon: the janitor reclaims the session.
	deadline := time.Now().Add(2 * time.Second)
	for r.srv.Stats().Evicted == 0 {
		if time.Now().After(deadline) {
			t.Fatal("janitor never evicted the idle session")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Re-dial as the client would: higher ConnID, fresh handshake,
	// NewInterval anchor where the stream resumes.
	r.peer = wire.NewPeer(r.ep, "srv", 7, r.peer.ConnID+1, 0, time.Millisecond)
	r.handshake()
	ni := wire.NewIntervalPayload{Epoch: 1, StartingLSN: 4}
	if _, err := r.peer.Send(wire.TNewInterval, 0, ni.Encode()); err != nil {
		t.Fatal(err)
	}
	r.force(1, 4, 2)
	pkt := r.recv()
	ack, err := wire.DecodeWriteAckPayload(pkt.Payload)
	if pkt.Type != wire.TNewHighLSN || err != nil || ack.Stable != 5 {
		t.Fatalf("write after reconnect: %v %+v %v", pkt.Type, ack, err)
	}
	// A duplicated Syn of the live connection must not reset it.
	if _, err := r.peer.Send(wire.TSyn, 0, nil); err != nil {
		t.Fatal(err)
	}
	if pkt := r.recv(); pkt.Type != wire.TSynAck {
		t.Fatalf("duplicate Syn after reconnect: expected SynAck, got %v", pkt.Type)
	}
	r.force(1, 6, 2)
	pkt = r.recv()
	ack, err = wire.DecodeWriteAckPayload(pkt.Payload)
	if pkt.Type != wire.TNewHighLSN || err != nil || ack.Stable != 7 {
		t.Fatalf("write after duplicate Syn: %v %+v %v", pkt.Type, ack, err)
	}
}

func TestServerLeaveRedirectsWritesServesReads(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 3)
	if pkt := r.recv(); pkt.Type != wire.TNewHighLSN {
		t.Fatalf("expected ack, got %v", pkt.Type)
	}
	r.srv.Leave()
	if !r.srv.Leaving() {
		t.Fatal("Leaving() false after Leave")
	}
	// Writes now draw a Redirect carrying the appended high-water mark,
	// not an ack; the records are NOT appended.
	r.force(1, 4, 2)
	pkt := r.recv()
	if pkt.Type != wire.TRedirect {
		t.Fatalf("write while leaving: expected Redirect, got %v", pkt.Type)
	}
	rp, err := wire.DecodeRedirectPayload(pkt.Payload)
	if err != nil || rp.AppendedHigh != 3 {
		t.Fatalf("redirect payload = %+v, %v", rp, err)
	}
	if _, err := r.store.Read(7, 4); err == nil {
		t.Fatal("record appended while leaving")
	}
	// Reads and interval lists keep working so departing clients can
	// still recover and stream off this server.
	if _, err := r.peer.Send(wire.TReadForwardReq, 0, (&wire.LSNPayload{LSN: 2}).Encode()); err != nil {
		t.Fatal(err)
	}
	pkt = r.recv()
	if pkt.Type != wire.TReadForwardResp {
		t.Fatalf("read while leaving: expected ReadForwardResp, got %v", pkt.Type)
	}
	if s := r.srv.Stats(); s.RedirectsSent == 0 || !s.Leaving {
		t.Fatalf("stats = %+v, want RedirectsSent>0 and Leaving", s)
	}
}

func TestServerReconnectResumesFromStore(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 3)
	if pkt := r.recv(); pkt.Type != wire.TNewHighLSN {
		t.Fatalf("expected ack, got %v", pkt.Type)
	}
	// The connection is torn down (say the server restarted and Rst the
	// old incarnation) and the client reconnects mid-stream. Records
	// 4..5 were in flight when the connection died; the first message
	// the server sees starts at 6. It must resume from its stored
	// position and NACK the gap, not adopt the packet's.
	r.peer = wire.NewPeer(r.ep, "srv", 7, r.peer.ConnID+1, 0, time.Millisecond)
	r.handshake()
	r.force(1, 6, 2)
	pkt := r.recv()
	mi, err := wire.DecodeIntervalPayload(pkt.Payload)
	if pkt.Type != wire.TMissingInterval || err != nil || mi.Low != 4 || mi.High != 5 {
		t.Fatalf("gap after reconnect: %v %+v %v", pkt.Type, mi, err)
	}
	// The records are within δ, so the client still buffers them: a
	// plain resend from the gap heals the stream with no NewInterval.
	r.force(1, 4, 4)
	pkt = r.recv()
	ack, err := wire.DecodeWriteAckPayload(pkt.Payload)
	if pkt.Type != wire.TNewHighLSN || err != nil || ack.Stable != 7 {
		t.Fatalf("resend from gap: %v %+v %v", pkt.Type, ack, err)
	}
	for lsn := record.LSN(1); lsn <= 7; lsn++ {
		if _, err := r.store.Read(7, lsn); err != nil {
			t.Fatalf("store.Read(%d): %v", lsn, err)
		}
	}
}

func TestServerCorruptPacketIgnored(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.ep.Send("srv", []byte{1, 2, 3, 4, 5})
	r.force(1, 1, 1)
	if pkt := r.recv(); pkt.Type != wire.TNewHighLSN {
		t.Fatalf("after garbage: %v", pkt.Type)
	}
	if s := r.srv.Stats(); s.PacketsDropped == 0 {
		t.Fatal("garbage not counted")
	}
}

func TestServerTruncateCall(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 10)
	r.recv()
	seq, _ := r.peer.Send(wire.TTruncateReq, 0, (&wire.LSNPayload{LSN: 6}).Encode())
	pkt := r.recv()
	if pkt.Type != wire.TTruncateResp || pkt.RespTo != seq {
		t.Fatalf("resp = %+v", pkt)
	}
	ivs := r.store.Intervals(7)
	if len(ivs) != 1 || ivs[0].Low != 6 {
		t.Fatalf("intervals after truncate = %v", ivs)
	}
	// Truncating a client with no records acks idempotently.
	r2 := newRig(t)
	r2.handshake()
	seq, _ = r2.peer.Send(wire.TTruncateReq, 0, (&wire.LSNPayload{LSN: 6}).Encode())
	if pkt := r2.recv(); pkt.Type != wire.TTruncateResp || pkt.RespTo != seq {
		t.Fatalf("no-record truncate resp = %+v", pkt)
	}
}

func TestServerRejectsBadPayloads(t *testing.T) {
	r := newRig(t)
	r.handshake()
	// Malformed payloads for every call type must produce ErrResp with
	// CodeBadRequest rather than a crash or silence.
	calls := []struct {
		name string
		typ  wire.Type
	}{
		{"write", wire.TWriteLog},
		{"force", wire.TForceLog},
		{"newinterval", wire.TNewInterval},
		{"readfwd", wire.TReadForwardReq},
		{"readbwd", wire.TReadBackwardReq},
		{"copylog", wire.TCopyLogReq},
		{"install", wire.TInstallCopiesReq},
		{"epochwrite", wire.TEpochWriteReq},
		{"truncate", wire.TTruncateReq},
	}
	for _, c := range calls {
		t.Run(c.name, func(t *testing.T) {
			seq, err := r.peer.Send(c.typ, 0, []byte{0xde, 0xad})
			if err != nil {
				t.Fatal(err)
			}
			pkt := r.recv()
			if pkt.Type != wire.TErrResp {
				t.Fatalf("%s: got %v, want ErrResp", c.name, pkt.Type)
			}
			if pkt.RespTo != seq && c.typ.IsRequest() {
				t.Fatalf("%s: RespTo %d, want %d", c.name, pkt.RespTo, seq)
			}
			ep, err := wire.DecodeErrPayload(pkt.Payload)
			if err != nil || ep.Code != wire.CodeBadRequest {
				t.Fatalf("%s: err payload %+v, %v", c.name, ep, err)
			}
		})
	}
}

func TestServerEmptyWritePayloadRejected(t *testing.T) {
	r := newRig(t)
	r.handshake()
	p := wire.RecordsPayload{Epoch: 1, Records: nil}
	seq, _ := r.peer.Send(wire.TForceLog, 0, p.Encode())
	pkt := r.recv()
	if pkt.Type != wire.TErrResp || pkt.RespTo != seq {
		t.Fatalf("resp = %+v", pkt)
	}
}

func TestServerNonConsecutiveRecordsInMessageRejected(t *testing.T) {
	r := newRig(t)
	r.handshake()
	p := wire.RecordsPayload{Epoch: 1, Records: []record.Record{
		{LSN: 1, Epoch: 1, Present: true, Data: []byte("a")},
		{LSN: 3, Epoch: 1, Present: true, Data: []byte("gap")},
	}}
	r.peer.Send(wire.TForceLog, 0, p.Encode())
	pkt := r.recv()
	if pkt.Type != wire.TErrResp {
		t.Fatalf("resp = %v, want ErrResp (records must be consecutive)", pkt.Type)
	}
	ep, _ := wire.DecodeErrPayload(pkt.Payload)
	if ep.Code != wire.CodeSequencing {
		t.Fatalf("code = %d", ep.Code)
	}
}

func TestServerEpochOpsWithoutHost(t *testing.T) {
	r := newRig(t, func(cfg *Config) { cfg.Epochs = nil })
	r.handshake()
	seq, _ := r.peer.Send(wire.TEpochReadReq, 0, (&wire.EpochValuePayload{}).Encode())
	pkt := r.recv()
	if pkt.Type != wire.TErrResp || pkt.RespTo != seq {
		t.Fatalf("resp = %+v", pkt)
	}
}

func TestServerStatsSnapshot(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 3)
	r.recv()
	s := r.srv.Stats()
	if s.PacketsReceived == 0 || s.RecordsWritten != 3 || s.Forces != 1 || s.AcksSent != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestServerStopIdempotent(t *testing.T) {
	r := newRig(t)
	r.srv.Stop()
	r.srv.Stop() // second stop is a no-op
}

// write sends a WriteLog (no force flag) with consecutive records.
func (r *rig) write(epoch record.Epoch, lsn record.LSN, n int) {
	r.t.Helper()
	var recs []record.Record
	for i := 0; i < n; i++ {
		recs = append(recs, record.Record{LSN: lsn + record.LSN(i), Epoch: epoch, Present: true, Data: []byte("d")})
	}
	p := wire.RecordsPayload{Epoch: epoch, Records: recs}
	if _, err := r.peer.Send(wire.TWriteLog, 0, p.Encode()); err != nil {
		r.t.Fatal(err)
	}
}

// recvStable drains acks until the cumulative stable LSN reaches want,
// failing on anything that is not a NewHighLSN.
func (r *rig) recvStable(want record.LSN) *wire.WriteAckPayload {
	r.t.Helper()
	for {
		pkt := r.recv()
		if pkt.Type != wire.TNewHighLSN {
			r.t.Fatalf("expected NewHighLSN, got %v", pkt.Type)
		}
		ack, err := wire.DecodeWriteAckPayload(pkt.Payload)
		if err != nil {
			r.t.Fatalf("ack decode: %v", err)
		}
		if ack.Stable >= want {
			return ack
		}
	}
}

// TestServerStreamedWriteAcked: a WriteLog with no force flag still
// draws a cumulative stability ack — the acker forces in the background
// so a streaming client's window advances without a force round trip.
func TestServerStreamedWriteAcked(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.write(1, 1, 5)
	ack := r.recvStable(5)
	if ack.Appended < 5 {
		t.Fatalf("ack = %+v, want appended >= 5", ack)
	}
	for lsn := record.LSN(1); lsn <= 5; lsn++ {
		if _, err := r.store.Read(7, lsn); err != nil {
			t.Fatalf("store.Read(%d): %v", lsn, err)
		}
	}
}

// TestServerForcePointAcks: a ForcePoint covering already-streamed
// records forces and acks without the records being resent.
func TestServerForcePointAcks(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.write(1, 1, 4)
	r.recvStable(4)
	if _, err := r.peer.SendLSN(wire.TForcePoint, 0, 4); err != nil {
		t.Fatal(err)
	}
	ack := r.recvStable(4)
	if ack.Stable < 4 {
		t.Fatalf("force point ack = %+v", ack)
	}
}

// TestServerForcePointBeyondAppendedNacks: a force point past what the
// server holds means the covering WriteLogs were lost — the server must
// NACK the gap, never ack records it does not store.
func TestServerForcePointBeyondAppendedNacks(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.write(1, 1, 3)
	r.recvStable(3)
	if _, err := r.peer.SendLSN(wire.TForcePoint, 0, 7); err != nil {
		t.Fatal(err)
	}
	pkt := r.recv()
	if pkt.Type != wire.TMissingInterval {
		t.Fatalf("expected MissingInterval, got %v", pkt.Type)
	}
	mi, err := wire.DecodeIntervalPayload(pkt.Payload)
	if err != nil || mi.Low != 4 || mi.High != 7 {
		t.Fatalf("missing = %+v, %v", mi, err)
	}
}

// TestServerForcePointFreshSessionAnchorsFromStore: a force point as
// the first message of a connection resumes from the store's position,
// exactly like a first write — covering a client that reconnects and
// forces before sending anything new.
func TestServerForcePointFreshSessionAnchorsFromStore(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.force(1, 1, 3)
	r.recvStable(3)
	// Reconnect with a new incarnation; first message is a force point
	// at the stored high.
	r.peer = wire.NewPeer(r.ep, "srv", 7, r.peer.ConnID+1, 0, time.Millisecond)
	r.handshake()
	if _, err := r.peer.SendLSN(wire.TForcePoint, 0, 3); err != nil {
		t.Fatal(err)
	}
	r.recvStable(3)
	// A force point past the stored high is NACKed from the store anchor.
	if _, err := r.peer.SendLSN(wire.TForcePoint, 0, 5); err != nil {
		t.Fatal(err)
	}
	pkt := r.recv()
	mi, err := wire.DecodeIntervalPayload(pkt.Payload)
	if pkt.Type != wire.TMissingInterval || err != nil || mi.Low != 4 || mi.High != 5 {
		t.Fatalf("fresh-session gap: %v %+v %v", pkt.Type, mi, err)
	}
}

// TestServerWriteRetransmissionReacked: a full-overlap WriteLog
// retransmission (the client evidently missed the cumulative ack)
// draws a repeat ack rather than silence — without it, a client whose
// tail ack was lost would stall its send window until the next force.
func TestServerWriteRetransmissionReacked(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.write(1, 1, 3)
	r.recvStable(3)
	r.write(1, 1, 3) // retransmission: nothing new appends
	ack := r.recvStable(3)
	if ack.Appended != 3 {
		t.Fatalf("re-ack = %+v", ack)
	}
}

// TestServerReadTooLargeRecordDistinctError pins the handleRead fix:
// a record that exists but cannot fit a single reply packet must not
// be reported as CodeNotStored (which would tell the client this
// server holds nothing at the LSN), but with the distinct
// CodeTooLarge.
func TestServerReadTooLargeRecordDistinctError(t *testing.T) {
	r := newRig(t)
	r.handshake()
	// Inject the oversized record directly into the store: the network
	// write path cannot produce one today (it arrives under the same
	// packet framing), but a replayed stream from a backend with a
	// larger write MTU can.
	huge := record.Record{LSN: 1, Epoch: 1, Present: true, Data: make([]byte, wire.MaxPayload)}
	if err := r.store.Append(7, huge); err != nil {
		t.Fatal(err)
	}

	for _, typ := range []wire.Type{wire.TReadForwardReq, wire.TReadBackwardReq} {
		seq, _ := r.peer.Send(typ, 0, (&wire.LSNPayload{LSN: 1}).Encode())
		pkt := r.recv()
		if pkt.Type != wire.TErrResp || pkt.RespTo != seq {
			t.Fatalf("%s resp = %+v", typ, pkt)
		}
		p, err := wire.DecodeErrPayload(pkt.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if p.Code != wire.CodeTooLarge {
			t.Fatalf("%s code = %d, want CodeTooLarge", typ, p.Code)
		}
	}

	// A genuinely absent LSN still answers CodeNotStored.
	seq, _ := r.peer.Send(wire.TReadForwardReq, 0, (&wire.LSNPayload{LSN: 2}).Encode())
	pkt := r.recv()
	p, err := wire.DecodeErrPayload(pkt.Payload)
	if err != nil || pkt.RespTo != seq || p.Code != wire.CodeNotStored {
		t.Fatalf("absent LSN: %+v, %v", p, err)
	}
}
