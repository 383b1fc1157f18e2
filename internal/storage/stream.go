package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"distlog/internal/record"
)

// The log stream is a sequence of framed entries. Records from all
// clients are interleaved in arrival order so the disk is written
// strictly sequentially (the paper's first design objective for the
// disk representation: no seeks while writing).
//
// Frame layout:
//
//	Kind    uint8
//	Len     uint32  (payload length)
//	Payload Len bytes
//	CRC32   uint32  (IEEE, over Kind+Len+Payload)
//
// Any other lead byte — a zero from a block that was never written, say
// — is a bad frame.

// Entry kinds.
const (
	kindRecord     = 0x01 // payload: ClientID + record
	kindStagedCopy = 0x02 // payload: ClientID + record (CopyLog staging)
	kindInstall    = 0x03 // payload: ClientID + epoch  (InstallCopies commit)
	kindTruncate   = 0x05 // payload: ClientID + before-LSN (Section 5.3)
)

const frameOverhead = 1 + 4 + 4

// ErrBadFrame is returned when a frame fails its CRC or is malformed.
var ErrBadFrame = errors.New("storage: corrupt stream frame")

// streamEntry is one decoded stream entry.
type streamEntry struct {
	kind   byte
	client record.ClientID
	rec    record.Record // kindRecord, kindStagedCopy
	arg    uint64        // the epoch of kindInstall, the before-LSN of kindTruncate
}

// appendFrame wraps payload in a frame of the given kind.
func appendFrame(buf []byte, kind byte, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	sum := crc32.ChecksumIEEE(buf[start:])
	return binary.BigEndian.AppendUint32(buf, sum)
}

// encodeRecordEntry frames a record (normal or staged) for the stream.
func encodeRecordEntry(buf []byte, kind byte, c record.ClientID, rec record.Record) []byte {
	payload := binary.BigEndian.AppendUint64(nil, uint64(c))
	payload = rec.AppendEncode(payload)
	return appendFrame(buf, kind, payload)
}

// encodeArgEntry frames an InstallCopies commit marker (kindInstall,
// arg the epoch) or a truncation point (kindTruncate, arg the LSN).
func encodeArgEntry(buf []byte, kind byte, c record.ClientID, arg uint64) []byte {
	payload := binary.BigEndian.AppendUint64(nil, uint64(c))
	return appendFrame(buf, kind, binary.BigEndian.AppendUint64(payload, arg))
}

// decodeFrame decodes one frame from the front of buf and returns its
// length.
func decodeFrame(buf []byte) (streamEntry, int, error) {
	if len(buf) < frameOverhead {
		return streamEntry{}, 0, fmt.Errorf("%w: truncated header", ErrBadFrame)
	}
	kind := buf[0]
	plen := int(binary.BigEndian.Uint32(buf[1:5]))
	if plen < 0 || plen > len(buf)-frameOverhead {
		return streamEntry{}, 0, fmt.Errorf("%w: payload length %d exceeds buffer", ErrBadFrame, plen)
	}
	end := 5 + plen
	wantSum := binary.BigEndian.Uint32(buf[end : end+4])
	if crc32.ChecksumIEEE(buf[:end]) != wantSum {
		return streamEntry{}, 0, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	payload := buf[5:end]
	e := streamEntry{kind: kind}
	switch kind {
	case kindRecord, kindStagedCopy:
		if len(payload) < 8 {
			return streamEntry{}, 0, fmt.Errorf("%w: short record payload", ErrBadFrame)
		}
		e.client = record.ClientID(binary.BigEndian.Uint64(payload[:8]))
		rec, n, err := record.DecodeRecord(payload[8:])
		if err != nil {
			return streamEntry{}, 0, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		if n != len(payload)-8 || rec.EncodedSize() != n {
			return streamEntry{}, 0, fmt.Errorf("%w: record payload is not as the store writes it", ErrBadFrame)
		}
		e.rec = rec
	case kindInstall, kindTruncate:
		if len(payload) != 16 {
			return streamEntry{}, 0, fmt.Errorf("%w: kind 0x%02x payload %d bytes", ErrBadFrame, kind, len(payload))
		}
		e.client = record.ClientID(binary.BigEndian.Uint64(payload[:8]))
		e.arg = binary.BigEndian.Uint64(payload[8:16])
	default:
		return streamEntry{}, 0, fmt.Errorf("%w: unknown kind 0x%02x", ErrBadFrame, kind)
	}
	return e, end + 4, nil
}
