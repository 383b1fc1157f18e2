// Package wire implements the specialized log access protocol of
// Section 4.2: a datagram protocol with single-packet requests and
// replies, asynchronous streaming of grouped log records, asynchronous
// positive/negative acknowledgments, strict RPCs for the infrequent
// operations, a three-way connection handshake with permanently unique
// packet sequence numbers, moving-window flow control via explicit
// allocations, and end-to-end CRC error detection (per the end-to-end
// argument: the protocol trusts the LAN to be mostly reliable and
// checks integrity once, at the endpoints).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"distlog/internal/record"
	"distlog/internal/transport"
)

// Type identifies a packet's meaning (Figure 4.1, plus connection
// management and the epoch-representative operations of Appendix I).
type Type uint8

// Packet types.
const (
	TInvalid Type = iota

	// Connection management (three-way handshake, reset).
	TSyn
	TSynAck
	TAck
	TRst

	// Asynchronous messages from client to log server.
	TWriteLog
	TForceLog
	TNewInterval
	// TForcePoint stamps a force point at an LSN the server already
	// holds: "force through here and acknowledge" without resending the
	// records. The streaming write path sends it when a Force target has
	// already left the client under TWriteLog cover.
	TForcePoint
	// TTruncatePoint reports a truncation-point advance (Section 5.3):
	// the client has checkpointed, so records below the carried LSN are
	// unnecessary for its recovery and the server may reclaim them. It
	// is fire-and-forget — truncation is a space optimization, and a
	// server that misses the report merely reclaims later, at the next
	// checkpoint's report.
	TTruncatePoint

	// Asynchronous messages from log server to client.
	TNewHighLSN
	TMissingInterval
	// TBusy is the congestion NACK: the server shed a write (queue
	// overflow or overload). The client halves its send window and ramps
	// back additively instead of retry-storming.
	TBusy
	// TRedirect is the drain hint of an administratively leaving server:
	// writes are no longer accepted (reads still are), and the client
	// should migrate its write set elsewhere. Unlike TBusy it is not a
	// congestion signal — backing off and retrying the same server would
	// never succeed.
	TRedirect

	// Synchronous calls (requests) from client to log server.
	TIntervalListReq
	TReadForwardReq
	TReadBackwardReq
	TCopyLogReq
	TInstallCopiesReq
	TEpochReadReq
	TEpochWriteReq
	TTruncateReq
	TReadStreamReq

	// Responses.
	TIntervalListResp
	TReadForwardResp
	TReadBackwardResp
	TCopyLogResp
	TInstallCopiesResp
	TEpochReadResp
	TEpochWriteResp
	TTruncateResp
	// TReadStreamData carries one chunk of a multi-packet streaming
	// read reply; the final chunk of a stream has its done flag set.
	TReadStreamData
	TErrResp

	// TReadCredit is the asynchronous client-to-server grant of a
	// streaming read (Figure 4.1's moving window, pointed at the reader):
	// it raises the number of TReadStreamData chunks the server may have
	// sent on one open stream. Appended after the responses so every
	// earlier type keeps its number.
	TReadCredit

	tMax
)

var typeNames = map[Type]string{
	TSyn: "Syn", TSynAck: "SynAck", TAck: "Ack", TRst: "Rst",
	TWriteLog: "WriteLog", TForceLog: "ForceLog", TNewInterval: "NewInterval",
	TForcePoint: "ForcePoint", TTruncatePoint: "TruncatePoint",
	TNewHighLSN: "NewHighLSN", TMissingInterval: "MissingInterval",
	TBusy: "Busy", TRedirect: "Redirect",
	TIntervalListReq: "IntervalListReq", TReadForwardReq: "ReadForwardReq",
	TReadBackwardReq: "ReadBackwardReq", TCopyLogReq: "CopyLogReq",
	TInstallCopiesReq: "InstallCopiesReq", TEpochReadReq: "EpochReadReq",
	TEpochWriteReq: "EpochWriteReq", TTruncateReq: "TruncateReq",
	TReadStreamReq:    "ReadStreamReq",
	TIntervalListResp: "IntervalListResp",
	TReadForwardResp:  "ReadForwardResp", TReadBackwardResp: "ReadBackwardResp",
	TCopyLogResp: "CopyLogResp", TInstallCopiesResp: "InstallCopiesResp",
	TEpochReadResp: "EpochReadResp", TEpochWriteResp: "EpochWriteResp",
	TTruncateResp: "TruncateResp", TReadStreamData: "ReadStreamData",
	TErrResp: "ErrResp", TReadCredit: "ReadCredit",
}

func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// IsRequest reports whether the type is a synchronous call expecting a
// response.
func (t Type) IsRequest() bool {
	return t >= TIntervalListReq && t <= TReadStreamReq
}

// IsResponse reports whether the type answers a synchronous call.
func (t Type) IsResponse() bool {
	return t >= TIntervalListResp && t <= TErrResp
}

// Packet header layout (big-endian):
//
//	Magic    uint16
//	Version  uint8
//	Type     uint8
//	ConnID   uint64  connection identifier, unique across client crashes
//	Seq      uint64  packet sequence number within the connection
//	Alloc    uint64  highest Seq the receiver of this packet may send
//	RespTo   uint64  for responses: the request packet's Seq (else 0)
//	ClientID uint64
//	PayloadLen uint16
//	Payload  ...
//	CRC32    uint32  over everything above
const (
	Magic = 0xD15C // "disc": distributed logging service
	// Version is the base protocol version. VersionDeps frames are
	// identical except that their grouped records may carry dependency
	// vectors (record flags bit 1, multi-stream logging): a frame
	// embedding at least one dep-vectored record is stamped
	// VersionDeps, so a decoder that predates dependency vectors
	// rejects it at the envelope instead of misparsing the record
	// stream. Encoders pick the lowest version the content allows, so
	// single-stream traffic is byte-identical to Version 1.
	Version     = 1
	VersionDeps = 2
	headerSize  = 2 + 1 + 1 + 8 + 8 + 8 + 8 + 8 + 2
	crcSize     = 4
)

// MaxPayload is the largest payload that fits a single network packet.
const MaxPayload = transport.MaxPacketSize - headerSize - crcSize

// Packet is one protocol datagram.
type Packet struct {
	Type     Type
	ConnID   uint64
	Seq      uint64
	Alloc    uint64
	RespTo   uint64
	ClientID record.ClientID
	Payload  []byte
}

// Errors returned by the codec.
var (
	ErrBadPacket   = errors.New("wire: malformed packet")
	ErrBadChecksum = errors.New("wire: checksum mismatch")
	ErrTooBig      = errors.New("wire: payload exceeds single-packet limit")
)

// Encode serializes the packet into a fresh buffer.
func (p *Packet) Encode() ([]byte, error) {
	return p.AppendEncode(make([]byte, 0, headerSize+len(p.Payload)+crcSize))
}

// AppendEncode appends the packet's wire encoding to buf and returns
// the extended slice. Hot paths pass a pooled buffer with packet-sized
// capacity so encoding allocates nothing.
func (p *Packet) AppendEncode(buf []byte) ([]byte, error) {
	return appendFrame(buf, p.Type, p.ConnID, p.Seq, p.Alloc, p.RespTo, p.ClientID,
		p.Payload, nil, 0, nil)
}

// appendFrame appends one full frame (header, payload, CRC) to buf.
// The payload is either the literal payload slice, or — when recs is
// non-nil — a RecordsPayload (epoch + grouped records) encoded directly
// into the frame, skipping the intermediate payload allocation. prefix,
// when non-nil, is written before either form; stream chunks use it for
// their small chunk header without a payload copy.
func appendFrame(buf []byte, t Type, connID, seq, alloc, respTo uint64,
	clientID record.ClientID, payload, prefix []byte, epoch record.Epoch, recs []record.Record) ([]byte, error) {
	start := len(buf)
	version := byte(Version)
	for i := range recs {
		if len(recs[i].Deps) > 0 {
			version = VersionDeps
			break
		}
	}
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, version, byte(t))
	buf = binary.BigEndian.AppendUint64(buf, connID)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint64(buf, alloc)
	buf = binary.BigEndian.AppendUint64(buf, respTo)
	buf = binary.BigEndian.AppendUint64(buf, uint64(clientID))
	lenOff := len(buf)
	buf = binary.BigEndian.AppendUint16(buf, 0) // patched below
	buf = append(buf, prefix...)
	if recs != nil {
		buf = binary.BigEndian.AppendUint64(buf, uint64(epoch))
		buf = record.EncodeRecords(buf, recs)
	} else {
		buf = append(buf, payload...)
	}
	plen := len(buf) - start - headerSize
	if plen > MaxPayload {
		return buf[:start], fmt.Errorf("%w: %d > %d", ErrTooBig, plen, MaxPayload)
	}
	binary.BigEndian.PutUint16(buf[lenOff:], uint16(plen))
	sum := crc32.ChecksumIEEE(buf[start:])
	return binary.BigEndian.AppendUint32(buf, sum), nil
}

// Decode parses and verifies a packet. The returned packet's Payload
// aliases data: callers must not reuse the receive buffer while the
// packet is live (both transports hand each packet its own buffer).
// The packet is returned by value so receive loops decode without a
// per-packet heap allocation.
func Decode(data []byte) (Packet, error) {
	if len(data) < headerSize+crcSize {
		return Packet{}, fmt.Errorf("%w: %d bytes", ErrBadPacket, len(data))
	}
	body, sumBytes := data[:len(data)-crcSize], data[len(data)-crcSize:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(sumBytes) {
		return Packet{}, ErrBadChecksum
	}
	if binary.BigEndian.Uint16(body[0:2]) != Magic {
		return Packet{}, fmt.Errorf("%w: bad magic", ErrBadPacket)
	}
	if body[2] != Version && body[2] != VersionDeps {
		return Packet{}, fmt.Errorf("%w: version %d", ErrBadPacket, body[2])
	}
	p := Packet{
		Type:     Type(body[3]),
		ConnID:   binary.BigEndian.Uint64(body[4:12]),
		Seq:      binary.BigEndian.Uint64(body[12:20]),
		Alloc:    binary.BigEndian.Uint64(body[20:28]),
		RespTo:   binary.BigEndian.Uint64(body[28:36]),
		ClientID: record.ClientID(binary.BigEndian.Uint64(body[36:44])),
	}
	if p.Type == TInvalid || p.Type >= tMax {
		return Packet{}, fmt.Errorf("%w: type %d", ErrBadPacket, body[3])
	}
	plen := int(binary.BigEndian.Uint16(body[44:46]))
	if headerSize+plen != len(body) {
		return Packet{}, fmt.Errorf("%w: payload length %d vs body %d", ErrBadPacket, plen, len(body)-headerSize)
	}
	if plen > 0 {
		p.Payload = body[headerSize:]
	}
	return p, nil
}
