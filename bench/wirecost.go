package main

import (
	"time"

	"distlog/internal/record"
	"distlog/internal/wire"
)

// wireCost is the CPU one ET1 frame costs the codec, measured alone.
type wireCost struct {
	encodeNS, decodeNS float64
}

// measureWireCost pushes a frame of seven 100-byte records — one ET1
// transaction — through Packet.AppendEncode and wire.Decode.
func measureWireCost() wireCost {
	const rounds = 20000
	recs := make([]record.Record, 7)
	for i := range recs {
		recs[i] = record.Record{LSN: record.LSN(i + 1), Epoch: 1, Present: true, Data: make([]byte, 100)}
	}
	pkt := wire.Packet{
		Type: wire.TForceLog, ConnID: 1, Seq: 1, ClientID: 1,
		Payload: (&wire.RecordsPayload{Epoch: 1, Records: recs}).Encode(),
	}
	buf := make([]byte, 0, 1400)
	var frame []byte
	start := time.Now()
	for i := 0; i < rounds; i++ {
		frame, _ = pkt.AppendEncode(buf[:0]) // cannot fail: the payload is far below MaxPayload
	}
	enc := time.Since(start)
	start = time.Now()
	ok := 0
	for i := 0; i < rounds; i++ {
		if _, err := wire.Decode(frame); err == nil {
			ok++
		}
	}
	dec := time.Since(start)
	if ok != rounds {
		return wireCost{}
	}
	return wireCost{
		encodeNS: float64(enc.Nanoseconds()) / rounds,
		decodeNS: float64(dec.Nanoseconds()) / rounds,
	}
}
