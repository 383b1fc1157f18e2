package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"distlog/internal/record"
)

// FuzzDecodeFrame feeds arbitrary bytes to the stream's frame decoder,
// both as they come and framed under a valid checksum, so the payload
// decoders see more than checksum failures. It must never panic, and a
// frame it accepts must be exactly the frame the store writes for the
// entry it decoded.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(encodeRecordEntry(nil, kindRecord, 7, rec(1, 1, "x")))
	f.Add(encodeRecordEntry(nil, kindStagedCopy, 7, notPresent(2, 3)))
	f.Add(encodeRecordEntry(nil, kindRecord, 2, record.Record{LSN: 5, Epoch: 2, Present: true, Data: []byte("dep"),
		Deps: []record.StreamDep{{Stream: 1, High: 4}}}))
	f.Add(encodeArgEntry(nil, kindInstall, 7, 2))
	f.Add(encodeArgEntry(nil, kindTruncate, 7, 3))
	f.Add(legacyCheckpointFrame)
	f.Add(make([]byte, 16))
	f.Fuzz(func(t *testing.T, buf []byte) {
		inputs := [][]byte{buf}
		if len(buf) > 0 {
			inputs = append(inputs, appendFrame(nil, buf[0], buf[1:]))
		}
		for _, in := range inputs {
			e, n, err := decodeFrame(in)
			if err != nil {
				continue
			}
			var again []byte
			switch e.kind {
			case kindRecord, kindStagedCopy:
				again = encodeRecordEntry(nil, e.kind, e.client, e.rec)
			case kindInstall, kindTruncate:
				again = encodeArgEntry(nil, e.kind, e.client, e.arg)
			default:
				t.Fatalf("decoded a frame of unknown kind 0x%02x", e.kind)
			}
			if !bytes.Equal(again, in[:n]) {
				t.Fatalf("frame %x decoded to %+v, which encodes as %x", in[:n], e, again)
			}
		}
	})
}

// FuzzDecodeManifest feeds arbitrary bytes to the manifest decoder,
// both as they come and under a valid checksum: on the track volume an
// NVRAM cell holds the manifest. It must never panic, and a manifest it
// accepts must decode to an index that encodes to a manifest which
// decodes and encodes again unchanged.
func FuzzDecodeManifest(f *testing.F) {
	ix := newLogIndex()
	ix.appendRecord(3, rec(1, 1, "a"), 0)
	ix.appendRecord(3, rec(2, 1, "b"), 40)
	ix.client(3).truncate(2)
	ix.appendRecord(9, rec(7, 2, "c"), 80)
	ix.stage.add(9, rec(7, 3, "copy"), 120)
	f.Add(encodeManifest(160, ix))
	f.Add(encodeManifest(0, newLogIndex()))
	f.Fuzz(func(t *testing.T, buf []byte) {
		withSum := binary.BigEndian.AppendUint32(append([]byte(nil), buf...), crc32.ChecksumIEEE(buf))
		for _, in := range [][]byte{buf, withSum} {
			boundary, ix, err := decodeManifest(in)
			if err != nil {
				continue
			}
			once := encodeManifest(boundary, ix)
			boundary, ix, err = decodeManifest(once)
			if err != nil {
				t.Fatalf("a re-encoded manifest does not decode: %v", err)
			}
			if twice := encodeManifest(boundary, ix); !bytes.Equal(once, twice) {
				t.Fatalf("manifest re-encodes as %x, then as %x", once, twice)
			}
		}
	})
}
