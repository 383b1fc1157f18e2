package wire

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"distlog/internal/record"
	"distlog/internal/transport"
)

func TestPacketRoundTrip(t *testing.T) {
	p := &Packet{
		Type:     TForceLog,
		ConnID:   777,
		Seq:      42,
		Alloc:    554,
		RespTo:   0,
		ClientID: 9,
		Payload:  []byte("records"),
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.ConnID != p.ConnID || got.Seq != p.Seq ||
		got.Alloc != p.Alloc || got.RespTo != p.RespTo || got.ClientID != p.ClientID ||
		string(got.Payload) != string(p.Payload) {
		t.Fatalf("got %+v, want %+v", got, p)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	f := func(typ uint8, connID, seq, alloc, respTo, client uint64, payload []byte) bool {
		pt := Type(typ%uint8(tMax-1)) + 1
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		p := &Packet{Type: pt, ConnID: connID, Seq: seq, Alloc: alloc, RespTo: respTo, ClientID: record.ClientID(client), Payload: payload}
		data, err := p.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		if got.Type != pt || got.Seq != seq || len(got.Payload) != len(payload) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p := &Packet{Type: TWriteLog, ConnID: 1, Seq: 1, ClientID: 1, Payload: []byte("abcdef")}
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip every byte in turn: every single-byte corruption must be
	// caught by the end-to-end checksum (or the header checks).
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		if _, err := Decode(mut); err == nil {
			t.Fatalf("corruption at byte %d went undetected", i)
		}
	}
}

func TestDecodeRejectsShortAndBadMagic(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("short: %v", err)
	}
	p := &Packet{Type: TAck, ConnID: 1, Seq: 1}
	data, _ := p.Encode()
	data[0] = 0x00 // breaks magic and the checksum
	if _, err := Decode(data); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestEncodeTooBig(t *testing.T) {
	p := &Packet{Type: TWriteLog, Payload: make([]byte, MaxPayload+1)}
	if _, err := p.Encode(); !errors.Is(err, ErrTooBig) {
		t.Fatalf("oversized: %v", err)
	}
}

func TestTypePredicates(t *testing.T) {
	if !TIntervalListReq.IsRequest() || TWriteLog.IsRequest() || TErrResp.IsRequest() {
		t.Error("IsRequest wrong")
	}
	if !TErrResp.IsResponse() || !TReadForwardResp.IsResponse() || TSyn.IsResponse() {
		t.Error("IsResponse wrong")
	}
	if TWriteLog.String() != "WriteLog" {
		t.Errorf("String = %s", TWriteLog)
	}
	// A read-credit grant is asynchronous: neither a call nor an answer.
	if TReadCredit.IsRequest() || TReadCredit.IsResponse() || TReadCredit.String() != "ReadCredit" {
		t.Error("ReadCredit misclassified")
	}
	// External per-type tables (bench/trace.go) are sized at 48.
	if tMax > 48 {
		t.Errorf("tMax = %d, want <= 48", tMax)
	}
}

func TestRecordsPayloadRoundTrip(t *testing.T) {
	p := &RecordsPayload{
		Epoch: 5,
		Records: []record.Record{
			{LSN: 1, Epoch: 5, Present: true, Data: []byte("a")},
			{LSN: 2, Epoch: 5, Present: false},
		},
	}
	got, err := DecodeRecordsPayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 5 || len(got.Records) != 2 || got.Records[0].LSN != 1 || got.Records[1].Present {
		t.Fatalf("got %+v", got)
	}
	if _, err := DecodeRecordsPayload([]byte{1}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestFitRecords(t *testing.T) {
	// 100-byte records: many fit in one packet.
	var recs []record.Record
	for i := 1; i <= 100; i++ {
		recs = append(recs, record.Record{LSN: record.LSN(i), Epoch: 1, Present: true, Data: make([]byte, 100)})
	}
	n := FitRecords(recs)
	if n < 5 || n > 100 {
		t.Fatalf("FitRecords = %d", n)
	}
	// The prefix must actually encode within a packet.
	p := &RecordsPayload{Epoch: 1, Records: recs[:n]}
	if len(p.Encode()) > MaxPayload {
		t.Fatal("FitRecords prefix does not fit")
	}
	// One more record must not fit.
	p = &RecordsPayload{Epoch: 1, Records: recs[:n+1]}
	if len(p.Encode()) <= MaxPayload {
		t.Fatal("FitRecords was not maximal")
	}
	// A record too large for any packet.
	huge := []record.Record{{LSN: 1, Epoch: 1, Present: true, Data: make([]byte, MaxPayload)}}
	if FitRecords(huge) != 0 {
		t.Fatal("oversized first record should yield 0")
	}
}

func TestSmallPayloadRoundTrips(t *testing.T) {
	ni := &NewIntervalPayload{Epoch: 3, StartingLSN: 77}
	gotNI, err := DecodeNewIntervalPayload(ni.Encode())
	if err != nil || *gotNI != *ni {
		t.Fatalf("NewInterval: %+v, %v", gotNI, err)
	}
	lp := &LSNPayload{LSN: 123}
	gotLP, err := DecodeLSNPayload(lp.Encode())
	if err != nil || *gotLP != *lp {
		t.Fatalf("LSN: %+v, %v", gotLP, err)
	}
	ip := &IntervalPayload{Low: 5, High: 9}
	gotIP, err := DecodeIntervalPayload(ip.Encode())
	if err != nil || *gotIP != *ip {
		t.Fatalf("Interval: %+v, %v", gotIP, err)
	}
	il := &IntervalListPayload{Intervals: []record.Interval{{Epoch: 1, Low: 1, High: 9}}}
	gotIL, err := DecodeIntervalListPayload(il.Encode())
	if err != nil || len(gotIL.Intervals) != 1 || gotIL.Intervals[0] != il.Intervals[0] {
		t.Fatalf("IntervalList: %+v, %v", gotIL, err)
	}
	ev := &EpochValuePayload{Value: 99}
	gotEV, err := DecodeEpochValuePayload(ev.Encode())
	if err != nil || *gotEV != *ev {
		t.Fatalf("EpochValue: %+v, %v", gotEV, err)
	}
	in := &InstallPayload{Epoch: 4, Low: 3, High: 9}
	gotIN, err := DecodeInstallPayload(in.Encode())
	if err != nil || *gotIN != *in {
		t.Fatalf("Install: %+v, %v", gotIN, err)
	}
	ep := &ErrPayload{Code: CodeNotStored, Message: "nope"}
	gotEP, err := DecodeErrPayload(ep.Encode())
	if err != nil || *gotEP != *ep {
		t.Fatalf("Err: %+v, %v", gotEP, err)
	}
	rs := &ReadStreamPayload{From: 9, To: 2, Dir: StreamBackward, Credit: 64}
	gotRS, err := DecodeReadStreamPayload(rs.Encode())
	if err != nil || *gotRS != *rs {
		t.Fatalf("ReadStream: %+v, %v", gotRS, err)
	}
	rc := &ReadCreditPayload{Stream: 1 << 40, Limit: 70000}
	gotRC, err := DecodeReadCreditPayload(rc.Encode())
	if err != nil || *gotRC != *rc {
		t.Fatalf("ReadCredit: %+v, %v", gotRC, err)
	}
	if _, err := DecodeReadCreditPayload(rc.Encode()[:11]); err == nil {
		t.Error("short ReadCredit accepted")
	}
	// Malformed variants.
	if _, err := DecodeNewIntervalPayload([]byte{1}); err == nil {
		t.Error("short NewInterval accepted")
	}
	if _, err := DecodeErrPayload([]byte{0, 1, 5, 'x'}); err == nil {
		t.Error("bad Err length accepted")
	}
}

func newPeerPair(t *testing.T) (*Peer, *Peer, *transport.Network) {
	t.Helper()
	n := transport.NewNetwork(1)
	ce := n.Endpoint("client")
	se := n.Endpoint("server")
	cp := NewPeer(ce, "server", 7, 100, 0, time.Millisecond)
	sp := NewPeer(se, "client", 7, 100, 0, time.Millisecond)
	return cp, sp, n
}

func TestPeerHandshakeGating(t *testing.T) {
	cp, _, _ := newPeerPair(t)
	if _, err := cp.Send(TWriteLog, 0, nil); !errors.Is(err, ErrNotEstablished) {
		t.Fatalf("data before handshake: %v", err)
	}
	if _, err := cp.Send(TSyn, 0, nil); err != nil {
		t.Fatalf("Syn: %v", err)
	}
	cp.SetEstablished()
	if _, err := cp.Send(TWriteLog, 0, nil); err != nil {
		t.Fatalf("data after establishment: %v", err)
	}
}

func TestPeerSequenceNumbersIncrease(t *testing.T) {
	cp, _, _ := newPeerPair(t)
	cp.SetEstablished()
	var prev uint64
	for i := 0; i < 10; i++ {
		seq, err := cp.Send(TWriteLog, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seq <= prev {
			t.Fatalf("seq %d after %d", seq, prev)
		}
		prev = seq
	}
}

func TestPeerObserveDuplicates(t *testing.T) {
	_, sp, _ := newPeerPair(t)
	pkt := &Packet{Type: TWriteLog, ConnID: 100, Seq: 5, ClientID: 7}
	if !sp.Observe(pkt) {
		t.Fatal("first delivery rejected")
	}
	if sp.Observe(pkt) {
		t.Fatal("duplicate accepted")
	}
	if s := sp.Stats(); s.Duplicates != 1 || s.Received != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPeerObserveStaleConnID(t *testing.T) {
	_, sp, _ := newPeerPair(t)
	pkt := &Packet{Type: TWriteLog, ConnID: 99 /* previous incarnation */, Seq: 1, ClientID: 7}
	if sp.Observe(pkt) {
		t.Fatal("stale incarnation accepted")
	}
	if s := sp.Stats(); s.StaleConnID != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPeerObserveOutOfOrderAccepted(t *testing.T) {
	_, sp, _ := newPeerPair(t)
	for _, seq := range []uint64{3, 1, 2, 5, 4} {
		if !sp.Observe(&Packet{Type: TWriteLog, ConnID: 100, Seq: seq, ClientID: 7}) {
			t.Fatalf("seq %d rejected", seq)
		}
	}
	if s := sp.Stats(); s.Received != 5 {
		t.Fatalf("stats %+v", s)
	}
}

func TestPeerAllocationGrows(t *testing.T) {
	cp, sp, _ := newPeerPair(t)
	cp.SetEstablished()
	sp.SetEstablished()
	// The client learns the server's allocation from observed packets.
	pkt := &Packet{Type: TNewHighLSN, ConnID: 100, Seq: 1, Alloc: 10_000, ClientID: 7}
	cp.Observe(pkt)
	cp.mu.Lock()
	alloc := cp.theirAlloc
	cp.mu.Unlock()
	if alloc != 10_000 {
		t.Fatalf("theirAlloc = %d", alloc)
	}
}

func TestPeerOverAllocPauses(t *testing.T) {
	n := transport.NewNetwork(1)
	ce := n.Endpoint("client")
	cp := NewPeer(ce, "server", 7, 100, 2 /* tiny window */, 30*time.Millisecond)
	cp.SetEstablished()
	start := time.Now()
	for i := 0; i < 3; i++ { // third send exceeds the window of 2
		if _, err := cp.Send(TWriteLog, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("no pause observed: %v", elapsed)
	}
	if s := cp.Stats(); s.OverAllocWaits != 1 {
		t.Fatalf("OverAllocWaits = %d", s.OverAllocWaits)
	}
}

func TestPeerEndToEndPacketFlow(t *testing.T) {
	cp, sp, n := newPeerPair(t)
	cp.SetEstablished()
	sp.SetEstablished()
	payload := (&LSNPayload{LSN: 9}).Encode()
	if _, err := cp.Send(TNewHighLSN, 0, payload); err != nil {
		t.Fatal(err)
	}
	se := n.Endpoint("server")
	raw, err := se.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := Decode(raw.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Observe(&pkt) {
		t.Fatal("packet rejected")
	}
	lp, err := DecodeLSNPayload(pkt.Payload)
	if err != nil || lp.LSN != 9 {
		t.Fatalf("payload: %+v, %v", lp, err)
	}
}

func TestPeerSendErr(t *testing.T) {
	cp, _, n := newPeerPair(t)
	cp.SetEstablished()
	if err := cp.SendErr(42, CodeNotStored, "missing"); err != nil {
		t.Fatal(err)
	}
	se := n.Endpoint("server")
	raw, err := se.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := Decode(raw.Data)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Type != TErrResp || pkt.RespTo != 42 {
		t.Fatalf("pkt %+v", pkt)
	}
	ep, err := DecodeErrPayload(pkt.Payload)
	if err != nil || ep.Code != CodeNotStored || ep.Message != "missing" {
		t.Fatalf("err payload %+v, %v", ep, err)
	}
}

func BenchmarkPacketEncodeDecode(b *testing.B) {
	recs := []record.Record{}
	for i := 1; i <= 7; i++ {
		recs = append(recs, record.Record{LSN: record.LSN(i), Epoch: 1, Present: true, Data: make([]byte, 100)})
	}
	payload := (&RecordsPayload{Epoch: 1, Records: recs}).Encode()
	p := &Packet{Type: TForceLog, ConnID: 1, Seq: 1, ClientID: 1, Payload: payload}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := p.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAppendEncodeIntoPrefixedBuffer(t *testing.T) {
	p := &Packet{Type: TWriteLog, ConnID: 3, Seq: 11, Alloc: 2,
		RespTo: 1, ClientID: 9, Payload: []byte("hello wire")}
	direct, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Appending after unrelated bytes must leave the prefix intact and
	// produce the same frame as a fresh Encode.
	prefix := []byte{0xde, 0xad}
	buf, err := p.AppendEncode(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:2]) != string(prefix) {
		t.Fatalf("prefix clobbered: % x", buf[:2])
	}
	if string(buf[2:]) != string(direct) {
		t.Fatalf("appended frame differs from Encode:\n% x\n% x", buf[2:], direct)
	}
	got, err := Decode(buf[2:])
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != p.Type || got.Seq != p.Seq || string(got.Payload) != "hello wire" {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestPeerSendRecordsAndLSN(t *testing.T) {
	cp, sp, n := newPeerPair(t)
	cp.SetEstablished()
	sp.SetEstablished()
	recs := []record.Record{
		{LSN: 4, Epoch: 2, Present: true, Data: []byte("a")},
		{LSN: 5, Epoch: 2, Present: true, Data: []byte("bb")},
	}
	if _, err := cp.SendRecords(TWriteLog, 0, 2, recs); err != nil {
		t.Fatal(err)
	}
	se := n.Endpoint("server")
	raw, err := se.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := Decode(raw.Data)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := DecodeRecordsPayload(pkt.Payload)
	if err != nil || rp.Epoch != 2 || len(rp.Records) != 2 {
		t.Fatalf("records payload: %+v, %v", rp, err)
	}
	if rp.Records[1].LSN != 5 || string(rp.Records[1].Data) != "bb" {
		t.Fatalf("record mismatch: %+v", rp.Records[1])
	}
	if _, err := cp.SendRecords(TWriteLog, 0, 2, nil); err == nil {
		t.Fatal("SendRecords with no records should error")
	}
	if _, err := sp.SendLSN(TNewHighLSN, pkt.Seq, 5); err != nil {
		t.Fatal(err)
	}
	ce := n.Endpoint("client")
	raw, err = ce.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := Decode(raw.Data)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Type != TNewHighLSN || ack.RespTo != pkt.Seq {
		t.Fatalf("ack %+v", ack)
	}
	lp, err := DecodeLSNPayload(ack.Payload)
	if err != nil || lp.LSN != 5 {
		t.Fatalf("ack payload: %+v, %v", lp, err)
	}
}

// TestPeerStreamChunkAndReservedSeq covers the two framing paths of a
// streaming read: chunks whose index outgrows 16 bits, and a request
// sent under a sequence number reserved beforehand — with an ordinary
// send in between, so the reserved number arrives out of order.
func TestPeerStreamChunkAndReservedSeq(t *testing.T) {
	cp, sp, n := newPeerPair(t)
	cp.SetEstablished()
	sp.SetEstablished()
	se, ce := n.Endpoint("server"), n.Endpoint("client")
	recv := func(ep transport.Endpoint) Packet {
		t.Helper()
		raw, err := ep.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := Decode(raw.Data)
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}

	reserved := cp.Reserve()
	later, err := cp.Send(TWriteLog, 0, nil)
	if err != nil || later != reserved+1 {
		t.Fatalf("send after Reserve: seq %d (reserved %d), %v", later, reserved, err)
	}
	req := ReadStreamPayload{From: 1, To: 9, Credit: 2}
	if err := cp.SendAs(reserved, TReadStreamReq, req.Encode()); err != nil {
		t.Fatal(err)
	}
	if pkt := recv(se); pkt.Seq != later {
		t.Fatalf("first arrival seq %d, want %d", pkt.Seq, later)
	}
	pkt := recv(se)
	if pkt.Seq != reserved || pkt.Type != TReadStreamReq || !sp.Observe(&pkt) {
		t.Fatalf("reserved-seq request: %+v", pkt)
	}

	recs := []record.Record{{LSN: 7, Epoch: 3, Present: true, Data: []byte("x")}}
	if _, err := sp.SendStreamChunk(pkt.Seq, 70000, true, 0, recs); err != nil {
		t.Fatal(err)
	}
	reply := recv(ce)
	chunk, err := DecodeStreamChunk(reply.Payload)
	if err != nil || reply.RespTo != reserved || chunk.Index != 70000 || !chunk.Done ||
		len(chunk.Records) != 1 || chunk.Records[0].LSN != 7 {
		t.Fatalf("chunk: %+v (respTo %d), %v", chunk, reply.RespTo, err)
	}
	// A final chunk may be empty.
	if _, err := sp.SendStreamChunk(pkt.Seq, 1, true, 0, nil); err != nil {
		t.Fatal(err)
	}
	if chunk, err := DecodeStreamChunk(recv(ce).Payload); err != nil || len(chunk.Records) != 0 || !chunk.Done {
		t.Fatalf("empty final chunk: %+v, %v", chunk, err)
	}
}

func TestStatelessSendRst(t *testing.T) {
	n := transport.NewNetwork(1)
	se := n.Endpoint("server")
	ce := n.Endpoint("client")
	if err := SendRst(se, "client", 7, 99, 41); err != nil {
		t.Fatal(err)
	}
	raw, err := ce.Recv(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := Decode(raw.Data)
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Type != TRst || pkt.ConnID != 99 || pkt.RespTo != 41 || pkt.ClientID != 7 {
		t.Fatalf("rst %+v", pkt)
	}
}
