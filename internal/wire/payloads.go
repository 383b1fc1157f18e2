package wire

import (
	"encoding/binary"
	"fmt"

	"distlog/internal/record"
)

// Typed payloads for each message of Figure 4.1. Encoders append to a
// caller buffer; decoders verify they consume the whole payload.

// RecordsPayload carries grouped log records for WriteLog, ForceLog,
// CopyLog, and the two read responses. The epoch applies to every
// record in the packet on the write path (records still carry their
// own epochs so read responses can mix epochs).
type RecordsPayload struct {
	Epoch   record.Epoch
	Records []record.Record
}

// Encode serializes the payload into a fresh buffer.
func (p *RecordsPayload) Encode() []byte {
	return p.AppendEncode(make([]byte, 0, p.EncodedSize()))
}

// AppendEncode appends the payload's encoding to buf and returns the
// extended slice (the allocation-free variant; Peer.SendRecords goes
// further and encodes straight into the frame buffer).
func (p *RecordsPayload) AppendEncode(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.Epoch))
	return record.EncodeRecords(buf, p.Records)
}

// EncodedSize returns the encoded length of the payload.
func (p *RecordsPayload) EncodedSize() int {
	size := 8 + 4 // epoch + count
	for _, r := range p.Records {
		size += r.EncodedSize()
	}
	return size
}

// DecodeRecordsPayload parses a RecordsPayload. The decoded records'
// Data alias data (zero-copy): a packet payload already aliases its
// receive buffer, which is never reused, so consumers follow the same
// ownership rule — clone records they retain (the server's stores do).
func DecodeRecordsPayload(data []byte) (*RecordsPayload, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: short records payload", ErrBadPacket)
	}
	p := &RecordsPayload{Epoch: record.Epoch(binary.BigEndian.Uint64(data))}
	recs, n, err := record.DecodeRecordsAlias(data[8:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPacket, err)
	}
	if n != len(data)-8 {
		return nil, fmt.Errorf("%w: trailing bytes after records", ErrBadPacket)
	}
	p.Records = recs
	return p, nil
}

// FitRecords returns the longest prefix of recs whose RecordsPayload
// encoding fits in a single packet. It never returns fewer than one
// record for a record that individually fits; a first record too large
// for any packet yields n == 0.
func FitRecords(recs []record.Record) int {
	size := 8 + 4 // epoch + count
	for i, r := range recs {
		size += r.EncodedSize()
		if size > MaxPayload {
			return i
		}
	}
	return len(recs)
}

// Stream directions carried by ReadStreamPayload.Dir.
const (
	StreamForward  uint8 = 0
	StreamBackward uint8 = 1
)

// streamChunkHeaderSize is the chunk header prepended to each
// TReadStreamData payload: [Index uint32][Flags uint8], followed by an
// ordinary RecordsPayload (epoch + grouped records).
const streamChunkHeaderSize = 4 + 1

// streamChunkDone flags the final chunk of a stream.
const streamChunkDone = 0x01

// ReadStreamPayload opens a streaming read of the stored records from
// From through To (inclusive, in scan order: To <= From for a backward
// stream) as a sequence of TReadStreamData chunks. The server sends
// chunks only while the client's credit lasts: Credit of them at once,
// more as TReadCredit grants arrive. The final chunk is flagged done;
// the server sets it early when it reaches a record it does not hold,
// so one stream never papers over a holder-set boundary.
type ReadStreamPayload struct {
	From record.LSN
	To   record.LSN
	Dir  uint8 // StreamForward or StreamBackward
	// Credit is the initial grant: how many chunks the server may send
	// before the first TReadCredit. Zero is treated as one.
	Credit uint8
}

// Encode serializes the payload.
func (p *ReadStreamPayload) Encode() []byte {
	buf := binary.BigEndian.AppendUint64(make([]byte, 0, 18), uint64(p.From))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.To))
	return append(buf, p.Dir, p.Credit)
}

// DecodeReadStreamPayload parses a ReadStreamPayload.
func DecodeReadStreamPayload(data []byte) (*ReadStreamPayload, error) {
	if len(data) != 18 {
		return nil, fmt.Errorf("%w: read stream payload %d bytes", ErrBadPacket, len(data))
	}
	return &ReadStreamPayload{
		From:   record.LSN(binary.BigEndian.Uint64(data)),
		To:     record.LSN(binary.BigEndian.Uint64(data[8:])),
		Dir:    data[16],
		Credit: data[17],
	}, nil
}

// ReadCreditPayload is the body of a TReadCredit grant. Limit is
// cumulative — the server may have sent chunks with Index < Limit — so
// a lost, duplicated, or reordered grant is covered by the next one.
type ReadCreditPayload struct {
	Stream uint64 // Seq of the TReadStreamReq that opened the stream
	Limit  uint32
}

// Encode serializes the payload.
func (p *ReadCreditPayload) Encode() []byte {
	buf := binary.BigEndian.AppendUint64(make([]byte, 0, 12), p.Stream)
	return binary.BigEndian.AppendUint32(buf, p.Limit)
}

// DecodeReadCreditPayload parses a ReadCreditPayload.
func DecodeReadCreditPayload(data []byte) (*ReadCreditPayload, error) {
	if len(data) != 12 {
		return nil, fmt.Errorf("%w: read credit payload %d bytes", ErrBadPacket, len(data))
	}
	return &ReadCreditPayload{
		Stream: binary.BigEndian.Uint64(data),
		Limit:  binary.BigEndian.Uint32(data[8:]),
	}, nil
}

// StreamChunk is one decoded TReadStreamData payload.
type StreamChunk struct {
	Index   uint32 // position of this chunk within the stream, from 0
	Done    bool   // final chunk of the stream
	Epoch   record.Epoch
	Records []record.Record // alias the packet buffer, like DecodeRecordsPayload
}

// DecodeStreamChunk parses a TReadStreamData payload.
func DecodeStreamChunk(data []byte) (*StreamChunk, error) {
	if len(data) < streamChunkHeaderSize {
		return nil, fmt.Errorf("%w: short stream chunk", ErrBadPacket)
	}
	rp, err := DecodeRecordsPayload(data[streamChunkHeaderSize:])
	if err != nil {
		return nil, err
	}
	return &StreamChunk{
		Index:   binary.BigEndian.Uint32(data),
		Done:    data[4]&streamChunkDone != 0,
		Epoch:   rp.Epoch,
		Records: rp.Records,
	}, nil
}

// FitStreamRecords is FitRecords for a stream chunk, accounting for the
// chunk header that precedes the records.
func FitStreamRecords(recs []record.Record) int {
	size := streamChunkHeaderSize + 8 + 4 // chunk header + epoch + count
	for i, r := range recs {
		size += r.EncodedSize()
		if size > MaxPayload {
			return i
		}
	}
	return len(recs)
}

// NewIntervalPayload tells the server to abandon a missing interval
// and begin a new sequence at StartingLSN.
type NewIntervalPayload struct {
	Epoch       record.Epoch
	StartingLSN record.LSN
}

// Encode serializes the payload.
func (p *NewIntervalPayload) Encode() []byte {
	buf := binary.BigEndian.AppendUint64(nil, uint64(p.Epoch))
	return binary.BigEndian.AppendUint64(buf, uint64(p.StartingLSN))
}

// DecodeNewIntervalPayload parses a NewIntervalPayload.
func DecodeNewIntervalPayload(data []byte) (*NewIntervalPayload, error) {
	if len(data) != 16 {
		return nil, fmt.Errorf("%w: NewInterval payload %d bytes", ErrBadPacket, len(data))
	}
	return &NewIntervalPayload{
		Epoch:       record.Epoch(binary.BigEndian.Uint64(data)),
		StartingLSN: record.LSN(binary.BigEndian.Uint64(data[8:])),
	}, nil
}

// LSNPayload carries a single LSN (NewHighLSN acks, read requests).
type LSNPayload struct {
	LSN record.LSN
}

// Encode serializes the payload.
func (p *LSNPayload) Encode() []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(p.LSN))
}

// DecodeLSNPayload parses an LSNPayload.
func DecodeLSNPayload(data []byte) (*LSNPayload, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("%w: LSN payload %d bytes", ErrBadPacket, len(data))
	}
	return &LSNPayload{LSN: record.LSN(binary.BigEndian.Uint64(data))}, nil
}

// WriteAckPayload is the cumulative write acknowledgement carried by
// NewHighLSN: Stable is the highest LSN covered by a completed force
// (the paper's new-high-LSN — everything at or below it is safely
// recorded), and Appended is the highest LSN the server has appended,
// forced or not. Appended advances the client's send window without
// waiting for stability; Stable alone releases records and completes
// forces. An 8-byte payload (the pre-streaming encoding, Stable only)
// decodes with Appended == Stable.
type WriteAckPayload struct {
	Stable   record.LSN
	Appended record.LSN
}

// Encode serializes the payload.
func (p *WriteAckPayload) Encode() []byte {
	buf := binary.BigEndian.AppendUint64(nil, uint64(p.Stable))
	return binary.BigEndian.AppendUint64(buf, uint64(p.Appended))
}

// DecodeWriteAckPayload parses a WriteAckPayload, accepting both the
// 16-byte streaming encoding and the legacy 8-byte stable-only one.
func DecodeWriteAckPayload(data []byte) (*WriteAckPayload, error) {
	switch len(data) {
	case 8:
		lsn := record.LSN(binary.BigEndian.Uint64(data))
		return &WriteAckPayload{Stable: lsn, Appended: lsn}, nil
	case 16:
		return &WriteAckPayload{
			Stable:   record.LSN(binary.BigEndian.Uint64(data)),
			Appended: record.LSN(binary.BigEndian.Uint64(data[8:])),
		}, nil
	default:
		return nil, fmt.Errorf("%w: write ack payload %d bytes", ErrBadPacket, len(data))
	}
}

// RedirectPayload is the body of a TRedirect drain hint: the highest
// LSN the leaving server appended for this client, so the client can
// tell how much of its stream the server already covers (records at or
// below it need no replay to a replacement if the rest of the old set
// confirms them).
type RedirectPayload struct {
	AppendedHigh record.LSN
}

// Encode serializes the payload.
func (p *RedirectPayload) Encode() []byte {
	return binary.BigEndian.AppendUint64(nil, uint64(p.AppendedHigh))
}

// DecodeRedirectPayload parses a RedirectPayload.
func DecodeRedirectPayload(data []byte) (*RedirectPayload, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("%w: redirect payload %d bytes", ErrBadPacket, len(data))
	}
	return &RedirectPayload{AppendedHigh: record.LSN(binary.BigEndian.Uint64(data))}, nil
}

// IntervalPayload carries one LSN interval (MissingInterval).
type IntervalPayload struct {
	Low  record.LSN
	High record.LSN
}

// Encode serializes the payload.
func (p *IntervalPayload) Encode() []byte {
	buf := binary.BigEndian.AppendUint64(nil, uint64(p.Low))
	return binary.BigEndian.AppendUint64(buf, uint64(p.High))
}

// DecodeIntervalPayload parses an IntervalPayload.
func DecodeIntervalPayload(data []byte) (*IntervalPayload, error) {
	if len(data) != 16 {
		return nil, fmt.Errorf("%w: interval payload %d bytes", ErrBadPacket, len(data))
	}
	return &IntervalPayload{
		Low:  record.LSN(binary.BigEndian.Uint64(data)),
		High: record.LSN(binary.BigEndian.Uint64(data[8:])),
	}, nil
}

// MaxIntervalsPerPacket is how many intervals one IntervalListResp can
// carry: the fixed 4-byte count header leaves room for
// (MaxPayload-4)/IntervalEncodedSize entries. A reply carrying exactly
// this many may have older intervals behind it; see
// IntervalListReqPayload.
const MaxIntervalsPerPacket = (MaxPayload - 4) / record.IntervalEncodedSize

// IntervalListReqPayload asks for a client's interval list, most recent
// intervals first: Skip is how many of the most recent ones the caller
// already holds, and the reply is the page of up to
// MaxIntervalsPerPacket intervals just older than those. Lists are
// short by design — a new interval per client restart, trimmed by every
// truncation — so one page is the rule; but a log restarted more often
// than it is truncated outgrows a packet, and a list silently cut to
// its tail reads back as a log whose oldest records were never written.
// (Skip 0 encodes as the four zero bytes of an empty interval list,
// which is what this request used to carry.)
type IntervalListReqPayload struct {
	Skip uint32
}

// Encode serializes the payload.
func (p *IntervalListReqPayload) Encode() []byte {
	return binary.BigEndian.AppendUint32(nil, p.Skip)
}

// DecodeIntervalListReqPayload parses an IntervalListReqPayload.
func DecodeIntervalListReqPayload(data []byte) (*IntervalListReqPayload, error) {
	if len(data) != 4 {
		return nil, fmt.Errorf("%w: interval list request %d bytes", ErrBadPacket, len(data))
	}
	return &IntervalListReqPayload{Skip: binary.BigEndian.Uint32(data)}, nil
}

// IntervalListPayload answers IntervalList calls: one page of the list,
// in ascending order.
type IntervalListPayload struct {
	Intervals []record.Interval
}

// Encode serializes the payload.
func (p *IntervalListPayload) Encode() []byte {
	return record.EncodeIntervals(nil, p.Intervals)
}

// DecodeIntervalListPayload parses an IntervalListPayload.
func DecodeIntervalListPayload(data []byte) (*IntervalListPayload, error) {
	ivs, n, err := record.DecodeIntervals(data)
	if err != nil || n != len(data) {
		return nil, fmt.Errorf("%w: bad interval list", ErrBadPacket)
	}
	return &IntervalListPayload{Intervals: ivs}, nil
}

// MaxHelloIntervals is how many intervals a SynAck carries: the page
// leaves room for the epoch trailer in one packet. A SynAck carrying
// exactly this many may have older intervals behind it, fetched with
// IntervalListReq calls skipping past them.
const MaxHelloIntervals = (MaxPayload - 4 - helloEpochSize) / record.IntervalEncodedSize

// helloEpochSize is the SynAck's epoch trailer: state byte + value.
const helloEpochSize = 1 + 8

// States of a SynAck's epoch read.
const (
	// HelloEpoch: Epoch holds the server's representative value.
	HelloEpoch uint8 = iota
	// HelloNoEpochHost: the server hosts no epoch representative.
	HelloNoEpochHost
	// HelloEpochUnread: the server's read failed; a TEpochReadReq
	// call reports why.
	HelloEpochUnread
)

// NoEpochHostMessage is the error a server without an epoch host gives
// for the epoch operations.
const NoEpochHostMessage = "server hosts no epoch representative"

// SynAckPayload is the server's half of the handshake, carrying the
// first two reads a restarting client makes of it — its newest
// interval-list page and the epoch representative's value — read after
// the handshake replaced any older session of the client. Encoded as
// an IntervalListPayload followed by the state byte and the value.
type SynAckPayload struct {
	Intervals  []record.Interval // at most MaxHelloIntervals, ascending
	EpochState uint8
	Epoch      uint64 // zero unless EpochState is HelloEpoch
}

// Encode serializes the payload.
func (p *SynAckPayload) Encode() []byte {
	buf := record.EncodeIntervals(make([]byte, 0, 4+len(p.Intervals)*record.IntervalEncodedSize+helloEpochSize), p.Intervals)
	buf = append(buf, p.EpochState)
	return binary.BigEndian.AppendUint64(buf, p.Epoch)
}

// DecodeSynAckPayload parses a SynAckPayload.
func DecodeSynAckPayload(data []byte) (*SynAckPayload, error) {
	ivs, n, err := record.DecodeIntervals(data)
	if err != nil || len(ivs) > MaxHelloIntervals || len(data)-n != helloEpochSize {
		return nil, fmt.Errorf("%w: bad SynAck payload", ErrBadPacket)
	}
	p := &SynAckPayload{Intervals: ivs, EpochState: data[n], Epoch: binary.BigEndian.Uint64(data[n+1:])}
	if p.EpochState > HelloEpochUnread || (p.EpochState != HelloEpoch && p.Epoch != 0) {
		return nil, fmt.Errorf("%w: bad SynAck epoch state %d", ErrBadPacket, p.EpochState)
	}
	return p, nil
}

// EpochValuePayload carries the epoch-representative state value
// (EpochRead responses and EpochWrite requests).
type EpochValuePayload struct {
	Value uint64
}

// Encode serializes the payload.
func (p *EpochValuePayload) Encode() []byte {
	return binary.BigEndian.AppendUint64(nil, p.Value)
}

// DecodeEpochValuePayload parses an EpochValuePayload.
func DecodeEpochValuePayload(data []byte) (*EpochValuePayload, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("%w: epoch value payload %d bytes", ErrBadPacket, len(data))
	}
	return &EpochValuePayload{Value: binary.BigEndian.Uint64(data)}, nil
}

// InstallPayload asks the server to install staged copies at an epoch.
// Low..High (inclusive) is the range the client staged: the server
// installs only a stage holding every LSN in it, so an install that
// overtook one of its CopyLog frames is refused (CodeNotStaged), never
// mistaken for the retransmission of one already applied.
type InstallPayload struct {
	Epoch     record.Epoch
	Low, High record.LSN
}

// Encode serializes the payload.
func (p *InstallPayload) Encode() []byte {
	buf := binary.BigEndian.AppendUint64(make([]byte, 0, 24), uint64(p.Epoch))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.Low))
	return binary.BigEndian.AppendUint64(buf, uint64(p.High))
}

// DecodeInstallPayload parses an InstallPayload.
func DecodeInstallPayload(data []byte) (*InstallPayload, error) {
	if len(data) != 24 {
		return nil, fmt.Errorf("%w: install payload %d bytes", ErrBadPacket, len(data))
	}
	p := &InstallPayload{
		Epoch: record.Epoch(binary.BigEndian.Uint64(data)),
		Low:   record.LSN(binary.BigEndian.Uint64(data[8:])),
		High:  record.LSN(binary.BigEndian.Uint64(data[16:])),
	}
	if p.Low == 0 || p.High < p.Low {
		return nil, fmt.Errorf("%w: install range %d..%d", ErrBadPacket, p.Low, p.High)
	}
	return p, nil
}

// Error codes carried by TErrResp.
const (
	CodeUnknown uint16 = iota
	CodeNotStored
	CodeBadRequest
	CodeSequencing
	CodeOverloaded
	CodeNotHandshaken
	// CodeTooLarge: the requested record is stored but does not fit in
	// a single reply packet. Distinct from CodeNotStored — the record
	// exists, so the client must not treat the server as a non-holder.
	CodeTooLarge
	// CodeNotStaged: an InstallCopies found part of its range not (yet)
	// staged and installed nothing. Retryable: the client awaits its
	// CopyLog acknowledgments and sends the install again.
	CodeNotStaged
)

// ErrPayload reports a failed call.
type ErrPayload struct {
	Code    uint16
	Message string
}

// Encode serializes the payload.
func (p *ErrPayload) Encode() []byte {
	buf := binary.BigEndian.AppendUint16(nil, p.Code)
	msg := p.Message
	if len(msg) > 256 {
		msg = msg[:256]
	}
	buf = append(buf, byte(len(msg)))
	return append(buf, msg...)
}

// DecodeErrPayload parses an ErrPayload.
func DecodeErrPayload(data []byte) (*ErrPayload, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("%w: short error payload", ErrBadPacket)
	}
	n := int(data[2])
	if len(data) != 3+n {
		return nil, fmt.Errorf("%w: error payload length", ErrBadPacket)
	}
	return &ErrPayload{
		Code:    binary.BigEndian.Uint16(data),
		Message: string(data[3:]),
	}, nil
}
