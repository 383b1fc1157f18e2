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
// Kind 0 is padding: a decoder skips the remainder of the current
// track when it sees it (only the track-oriented DiskStore pads).

// Entry kinds.
const (
	kindPad        = 0x00
	kindRecord     = 0x01 // payload: ClientID + record
	kindStagedCopy = 0x02 // payload: ClientID + record (CopyLog staging)
	kindInstall    = 0x03 // payload: ClientID + epoch  (InstallCopies commit)
	kindCheckpoint = 0x04 // payload: interval-list checkpoint (no longer written)
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
	epoch  record.Epoch  // kindInstall
	before record.LSN    // kindTruncate
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

// encodeInstallEntry frames an InstallCopies commit marker.
func encodeInstallEntry(buf []byte, c record.ClientID, epoch record.Epoch) []byte {
	payload := binary.BigEndian.AppendUint64(nil, uint64(c))
	payload = binary.BigEndian.AppendUint64(payload, uint64(epoch))
	return appendFrame(buf, kindInstall, payload)
}

// encodeTruncateEntry frames a truncation point.
func encodeTruncateEntry(buf []byte, c record.ClientID, before record.LSN) []byte {
	payload := binary.BigEndian.AppendUint64(nil, uint64(c))
	payload = binary.BigEndian.AppendUint64(payload, uint64(before))
	return appendFrame(buf, kindTruncate, payload)
}

// decodeFrame decodes one frame from the front of buf. A kindPad lead
// byte returns (entry{kind: kindPad}, 1, nil); the caller skips the
// rest of the track. n == 0 with a nil error means buf is empty.
func decodeFrame(buf []byte) (streamEntry, int, error) {
	if len(buf) == 0 {
		return streamEntry{}, 0, nil
	}
	if buf[0] == kindPad {
		return streamEntry{kind: kindPad}, 1, nil
	}
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
		if n != len(payload)-8 {
			return streamEntry{}, 0, fmt.Errorf("%w: trailing bytes in record payload", ErrBadFrame)
		}
		e.rec = rec
	case kindInstall:
		if len(payload) != 16 {
			return streamEntry{}, 0, fmt.Errorf("%w: install payload %d bytes", ErrBadFrame, len(payload))
		}
		e.client = record.ClientID(binary.BigEndian.Uint64(payload[:8]))
		e.epoch = record.Epoch(binary.BigEndian.Uint64(payload[8:16]))
	case kindTruncate:
		if len(payload) != 16 {
			return streamEntry{}, 0, fmt.Errorf("%w: truncate payload %d bytes", ErrBadFrame, len(payload))
		}
		e.client = record.ClientID(binary.BigEndian.Uint64(payload[:8]))
		e.before = record.LSN(binary.BigEndian.Uint64(payload[8:16]))
	case kindCheckpoint:
		if err := checkCheckpointPayload(payload); err != nil {
			return streamEntry{}, 0, err
		}
	default:
		return streamEntry{}, 0, fmt.Errorf("%w: unknown kind 0x%02x", ErrBadFrame, kind)
	}
	return e, end + 4, nil
}

// checkCheckpointPayload validates an interval-list checkpoint: a
// client count, then per client its ID and encoded interval list.
// Earlier versions wrote these frames; replay skips them.
func checkCheckpointPayload(payload []byte) error {
	if len(payload) < 4 {
		return fmt.Errorf("%w: short checkpoint", ErrBadFrame)
	}
	n := int(binary.BigEndian.Uint32(payload))
	off := 4
	for i := 0; i < n; i++ {
		if len(payload)-off < 8 {
			return fmt.Errorf("%w: truncated checkpoint", ErrBadFrame)
		}
		off += 8
		_, used, err := record.DecodeIntervals(payload[off:])
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		off += used
	}
	return nil
}
