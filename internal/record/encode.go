package record

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary encodings shared by the wire protocol and the on-disk log
// stream. All integers are big-endian. A record is encoded as
//
//	LSN    uint64
//	Epoch  uint64
//	Flags  uint8   (bit 0: present; bit 1: dependency vector)
//	Len    uint32  (length of Data; always 0 when not present)
//	Data   Len bytes
//	Deps   uint16 count, then count × (Stream uint32, High uint64)
//	       — only when flags bit 1 is set
//
// and an interval as three uint64s (Epoch, Low, High). Records
// without a dependency vector encode exactly as they always have;
// frames that carry dep-vectored records are sent under a bumped wire
// protocol version so decoders that predate bit 1 reject the frame
// wholesale instead of misparsing the trailing vector (see
// internal/wire).

const (
	recordHeaderSize = 8 + 8 + 1 + 4
	streamDepSize    = 4 + 8
	// IntervalEncodedSize is the fixed encoded size of an Interval.
	IntervalEncodedSize = 24

	flagPresent = 1 << 0
	flagDeps    = 1 << 1
)

// ErrTruncated is returned when a buffer ends inside an encoded value.
var ErrTruncated = errors.New("record: truncated encoding")

// MaxDataSize bounds a single record's data. Larger writes must be
// segmented by the client before logging.
const MaxDataSize = 1 << 24

// EncodedSize returns the encoded length of the record.
func (r Record) EncodedSize() int {
	n := recordHeaderSize
	if r.Present {
		n += len(r.Data)
	}
	if len(r.Deps) > 0 {
		n += 2 + len(r.Deps)*streamDepSize
	}
	return n
}

// AppendEncode appends the record's encoding to buf and returns the
// extended slice.
func (r Record) AppendEncode(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.LSN))
	buf = binary.BigEndian.AppendUint64(buf, uint64(r.Epoch))
	var flags byte
	if r.Present {
		flags |= flagPresent
	}
	if len(r.Deps) > 0 {
		flags |= flagDeps
	}
	buf = append(buf, flags)
	if r.Present {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.Data)))
		buf = append(buf, r.Data...)
	} else {
		buf = binary.BigEndian.AppendUint32(buf, 0)
	}
	if len(r.Deps) > 0 {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Deps)))
		for _, d := range r.Deps {
			buf = binary.BigEndian.AppendUint32(buf, d.Stream)
			buf = binary.BigEndian.AppendUint64(buf, uint64(d.High))
		}
	}
	return buf
}

// DecodeRecord decodes one record from the front of buf, returning the
// record and the number of bytes consumed. The record's Data is copied
// out of buf, so the buffer may be reused afterwards.
func DecodeRecord(buf []byte) (Record, int, error) {
	r, total, err := DecodeRecordAlias(buf)
	if err == nil && len(r.Data) > 0 {
		r.Data = append([]byte(nil), r.Data...)
	}
	return r, total, err
}

// DecodeRecordAlias decodes like DecodeRecord but the record's Data
// aliases buf (zero-copy). The caller must not reuse buf while the
// record is live, or must Clone records it retains.
func DecodeRecordAlias(buf []byte) (Record, int, error) {
	if len(buf) < recordHeaderSize {
		return Record{}, 0, ErrTruncated
	}
	var r Record
	r.LSN = LSN(binary.BigEndian.Uint64(buf[0:8]))
	r.Epoch = Epoch(binary.BigEndian.Uint64(buf[8:16]))
	flags := buf[16]
	if flags&^(flagPresent|flagDeps) != 0 {
		return Record{}, 0, fmt.Errorf("record: unknown flags 0x%02x", flags)
	}
	r.Present = flags&flagPresent != 0
	n := binary.BigEndian.Uint32(buf[17:21])
	if n > MaxDataSize {
		return Record{}, 0, fmt.Errorf("record: data length %d exceeds limit", n)
	}
	total := recordHeaderSize + int(n)
	if len(buf) < total {
		return Record{}, 0, ErrTruncated
	}
	if n > 0 {
		r.Data = buf[recordHeaderSize:total:total]
	}
	if flags&flagDeps != 0 {
		if len(buf) < total+2 {
			return Record{}, 0, ErrTruncated
		}
		cnt := int(binary.BigEndian.Uint16(buf[total : total+2]))
		total += 2
		if len(buf) < total+cnt*streamDepSize {
			return Record{}, 0, ErrTruncated
		}
		r.Deps = make([]StreamDep, cnt)
		for i := 0; i < cnt; i++ {
			r.Deps[i].Stream = binary.BigEndian.Uint32(buf[total : total+4])
			r.Deps[i].High = LSN(binary.BigEndian.Uint64(buf[total+4 : total+12]))
			total += streamDepSize
		}
	}
	return r, total, nil
}

// AppendEncode appends the interval's encoding to buf.
func (iv Interval) AppendEncode(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint64(buf, uint64(iv.Epoch))
	buf = binary.BigEndian.AppendUint64(buf, uint64(iv.Low))
	return binary.BigEndian.AppendUint64(buf, uint64(iv.High))
}

// DecodeInterval decodes one interval from the front of buf.
func DecodeInterval(buf []byte) (Interval, int, error) {
	if len(buf) < IntervalEncodedSize {
		return Interval{}, 0, ErrTruncated
	}
	return Interval{
		Epoch: Epoch(binary.BigEndian.Uint64(buf[0:8])),
		Low:   LSN(binary.BigEndian.Uint64(buf[8:16])),
		High:  LSN(binary.BigEndian.Uint64(buf[16:24])),
	}, IntervalEncodedSize, nil
}

// EncodeIntervals encodes a length-prefixed interval list.
func EncodeIntervals(buf []byte, ivs []Interval) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ivs)))
	for _, iv := range ivs {
		buf = iv.AppendEncode(buf)
	}
	return buf
}

// DecodeIntervals decodes a length-prefixed interval list.
func DecodeIntervals(buf []byte) ([]Interval, int, error) {
	if len(buf) < 4 {
		return nil, 0, ErrTruncated
	}
	n := int(binary.BigEndian.Uint32(buf))
	off := 4
	if n > (len(buf)-off)/IntervalEncodedSize {
		return nil, 0, ErrTruncated
	}
	ivs := make([]Interval, 0, n)
	for i := 0; i < n; i++ {
		iv, used, err := DecodeInterval(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		ivs = append(ivs, iv)
		off += used
	}
	return ivs, off, nil
}

// EncodeRecords encodes a length-prefixed record list.
func EncodeRecords(buf []byte, recs []Record) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	for _, r := range recs {
		buf = r.AppendEncode(buf)
	}
	return buf
}

// DecodeRecords decodes a length-prefixed record list. Record data is
// copied out of buf.
func DecodeRecords(buf []byte) ([]Record, int, error) {
	return decodeRecords(buf, false)
}

// DecodeRecordsAlias decodes like DecodeRecords but the records' Data
// alias buf (zero-copy); see DecodeRecordAlias for the ownership rule.
func DecodeRecordsAlias(buf []byte) ([]Record, int, error) {
	return decodeRecords(buf, true)
}

func decodeRecords(buf []byte, alias bool) ([]Record, int, error) {
	if len(buf) < 4 {
		return nil, 0, ErrTruncated
	}
	n := int(binary.BigEndian.Uint32(buf))
	off := 4
	if n < 0 || n > len(buf) { // each record needs at least one byte of header
		return nil, 0, ErrTruncated
	}
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		var r Record
		var used int
		var err error
		if alias {
			r, used, err = DecodeRecordAlias(buf[off:])
		} else {
			r, used, err = DecodeRecord(buf[off:])
		}
		if err != nil {
			return nil, 0, err
		}
		recs = append(recs, r)
		off += used
	}
	return recs, off, nil
}
