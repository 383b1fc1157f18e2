package server

import (
	"errors"
	"testing"
	"time"

	"distlog/internal/record"
	"distlog/internal/storage"
	"distlog/internal/wire"
)

// seedRecords appends n records of dataLen bytes straight into the
// rig's store for the rig's client.
func (r *rig) seedRecords(n, dataLen int) {
	r.t.Helper()
	data := make([]byte, dataLen)
	for i := 1; i <= n; i++ {
		if err := r.store.Append(7, record.Record{LSN: record.LSN(i), Epoch: 1, Present: true, Data: data}); err != nil {
			r.t.Fatal(err)
		}
	}
}

// recvChunk waits for the next TReadStreamData chunk answering stream.
func (r *rig) recvChunk(stream uint64) *wire.StreamChunk {
	r.t.Helper()
	pkt := r.recv()
	if pkt.Type != wire.TReadStreamData || pkt.RespTo != stream {
		r.t.Fatalf("expected a chunk of stream %d, got %s (respTo %d)", stream, pkt.Type, pkt.RespTo)
	}
	chunk, err := wire.DecodeStreamChunk(pkt.Payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return chunk
}

// expectQuiet asserts the server sends nothing for a while: a stream
// out of credit is parked, not trickling.
func (r *rig) expectQuiet() {
	r.t.Helper()
	if raw, err := r.ep.Recv(50 * time.Millisecond); err == nil {
		pkt, _ := wire.Decode(raw.Data)
		r.t.Fatalf("server sent %s while the stream had no credit", pkt.Type)
	}
}

// TestReadStreamCreditWindow drives the server side of the recovery
// stream's flow control with raw packets: a stream sends exactly as
// many chunks as the client has granted, parks, serves the same
// session's force between grants, treats grants as cumulative (stale
// and duplicate ones change nothing), never re-sends or skips a record
// across a park, and flags the chunk that ends the range.
func TestReadStreamCreditWindow(t *testing.T) {
	r := newRig(t)
	r.handshake()
	const total = 120
	r.seedRecords(total, 400) // three records to a chunk: ~40 chunks

	req := wire.ReadStreamPayload{From: 1, To: total, Dir: wire.StreamForward, Credit: 2}
	stream, err := r.peer.Send(wire.TReadStreamReq, 0, req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	next := record.LSN(1)
	var index uint32
	take := func(n int) (done bool) {
		t.Helper()
		for i := 0; i < n; i++ {
			chunk := r.recvChunk(stream)
			if chunk.Index != index {
				t.Fatalf("chunk index %d, want %d", chunk.Index, index)
			}
			index++
			for _, rec := range chunk.Records {
				if rec.LSN != next {
					t.Fatalf("chunk %d carries LSN %d, want %d (re-sent or skipped across a park)", chunk.Index, rec.LSN, next)
				}
				next++
			}
			if chunk.Done {
				return true
			}
		}
		return false
	}
	grant := func(limit uint32) {
		t.Helper()
		p := wire.ReadCreditPayload{Stream: stream, Limit: limit}
		if _, err := r.peer.Send(wire.TReadCredit, 0, p.Encode()); err != nil {
			t.Fatal(err)
		}
	}

	take(2)
	r.expectQuiet()

	// The worker is back at its queue: a force from the same session is
	// acknowledged while the stream stays parked.
	r.force(1, total+1, 1)
	if pkt := r.recv(); pkt.Type != wire.TNewHighLSN {
		t.Fatalf("force between grants: got %s, want NewHighLSN", pkt.Type)
	}

	grant(5)
	take(3)
	r.expectQuiet()
	grant(5) // duplicate
	grant(3) // stale (reordered)
	r.expectQuiet()

	// A grant for a stream the server never saw is ignored.
	p := wire.ReadCreditPayload{Stream: stream + 1000, Limit: 50}
	if _, err := r.peer.Send(wire.TReadCredit, 0, p.Encode()); err != nil {
		t.Fatal(err)
	}
	r.expectQuiet()

	grant(1000) // clamped by the server to its own maximum run-ahead
	if !take(1000) {
		t.Fatal("stream never flagged its final chunk")
	}
	if next != total+1 {
		t.Fatalf("stream ended at LSN %d, want %d", next-1, total)
	}
	grant(2000) // the stream is gone: nothing more comes
	r.expectQuiet()
	if st := r.srv.Stats(); st.StreamsServed != 1 || st.StreamPackets != uint64(index) || st.ReadsServed < total {
		t.Fatalf("stats = %+v, want 1 stream, %d chunks, >= %d reads", st, index, total)
	}
}

// TestReadStreamEndsAtHoldingsBoundary: a stream asked for more than
// the server holds delivers what it has and flags the last chunk done,
// so the client resumes on another holder; one asked to start at an LSN
// the server does not hold is refused outright.
func TestReadStreamEndsAtHoldingsBoundary(t *testing.T) {
	r := newRig(t)
	r.handshake()
	r.seedRecords(10, 10)

	req := wire.ReadStreamPayload{From: 10, To: 1, Dir: wire.StreamBackward, Credit: 8}
	stream, _ := r.peer.Send(wire.TReadStreamReq, 0, req.Encode())
	chunk := r.recvChunk(stream)
	if !chunk.Done || len(chunk.Records) != 10 || chunk.Records[0].LSN != 10 || chunk.Records[9].LSN != 1 {
		t.Fatalf("backward stream: %+v", chunk)
	}

	req = wire.ReadStreamPayload{From: 6, To: 500, Dir: wire.StreamForward, Credit: 8}
	stream, _ = r.peer.Send(wire.TReadStreamReq, 0, req.Encode())
	chunk = r.recvChunk(stream)
	if !chunk.Done || len(chunk.Records) != 5 || chunk.Records[4].LSN != 10 {
		t.Fatalf("stream past the holdings: %+v", chunk)
	}

	req = wire.ReadStreamPayload{From: 11, To: 500, Dir: wire.StreamForward, Credit: 8}
	seq, _ := r.peer.Send(wire.TReadStreamReq, 0, req.Encode())
	pkt := r.recv()
	ep, err := wire.DecodeErrPayload(pkt.Payload)
	if pkt.Type != wire.TErrResp || pkt.RespTo != seq || err != nil || ep.Code != wire.CodeNotStored {
		t.Fatalf("stream from an unheld LSN: %+v, %v", pkt, err)
	}
}

// fullStore fails every append the way a store out of space does.
type fullStore struct {
	storage.Store
}

func (fullStore) Append(record.ClientID, record.Record) error { return storage.ErrDiskFull }

// TestFullStoreRefusesWritesWithRedirect: a streamed write has no call
// waiting for an error reply, so a store that cannot take it must make
// the server refuse the way a draining server does — a Redirect the
// client acts on — while reads keep being served.
func TestFullStoreRefusesWritesWithRedirect(t *testing.T) {
	inner := storage.NewMemStore()
	if err := inner.Append(7, record.Record{LSN: 1, Epoch: 1, Present: true, Data: []byte("kept")}); err != nil {
		t.Fatal(err)
	}
	r := newRig(t, func(c *Config) { c.Store = fullStore{inner} })
	r.handshake()

	r.write(1, 2, 1)
	pkt := r.recv()
	if pkt.Type != wire.TRedirect {
		t.Fatalf("write into a full store: got %s, want Redirect", pkt.Type)
	}
	if _, err := inner.Read(7, 2); !errors.Is(err, storage.ErrNotStored) {
		t.Fatalf("record stored despite the refusal: %v", err)
	}
	if _, err := r.peer.Send(wire.TReadForwardReq, 0, (&wire.LSNPayload{LSN: 1}).Encode()); err != nil {
		t.Fatal(err)
	}
	if pkt := r.recv(); pkt.Type != wire.TReadForwardResp {
		t.Fatalf("read from a full store: got %s, want ReadForwardResp", pkt.Type)
	}
	if st := r.srv.Stats(); st.RedirectsSent == 0 || st.Leaving {
		t.Fatalf("stats = %+v, want RedirectsSent > 0 on a server that is not leaving", st)
	}
}
