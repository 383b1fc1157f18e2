package wire

import (
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"distlog/internal/record"
)

var updateGolden = flag.Bool("update", false, "rewrite the payload goldens under testdata/")

// Golden payloads: one committed encoding of each, so a change to the
// byte layout shows up as a diff rather than as two peers that no
// longer understand each other.
var (
	goldenSynAck = SynAckPayload{
		Intervals: []record.Interval{
			{Epoch: 3, Low: 1, High: 40},
			{Epoch: 5, Low: 37, High: 52},
		},
		EpochState: HelloEpoch,
		Epoch:      5,
	}
	goldenInstall = InstallPayload{Epoch: 6, Low: 37, High: 56}
)

// golden returns the committed encoding in testdata/name (hex text),
// rewriting it from want first under -update.
func golden(t testing.TB, name string, want []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(hex.EncodeToString(want)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return data
}

func TestSynAckPayloadGolden(t *testing.T) {
	enc := goldenSynAck.Encode()
	data := golden(t, "synack.golden", enc)
	if string(enc) != string(data) {
		t.Fatalf("SynAck encoding changed:\n got %x\nwant %x", enc, data)
	}
	got, err := DecodeSynAckPayload(data)
	if err != nil || !reflect.DeepEqual(*got, goldenSynAck) {
		t.Fatalf("DecodeSynAckPayload(golden) = %+v, %v", got, err)
	}
}

func TestInstallPayloadGolden(t *testing.T) {
	enc := goldenInstall.Encode()
	data := golden(t, "install.golden", enc)
	if string(enc) != string(data) {
		t.Fatalf("InstallCopies encoding changed:\n got %x\nwant %x", enc, data)
	}
	got, err := DecodeInstallPayload(data)
	if err != nil || *got != goldenInstall {
		t.Fatalf("DecodeInstallPayload(golden) = %+v, %v", got, err)
	}
}

// FuzzDecodeSynAckPayload: no input panics the decoder, whatever it
// accepts re-encodes to the same payload, and the handshake's old
// empty payload, like any 8-byte one, is refused.
func FuzzDecodeSynAckPayload(f *testing.F) {
	f.Add(golden(f, "synack.golden", goldenSynAck.Encode()))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := DecodeSynAckPayload(data[:min(len(data), 8)]); err == nil {
			t.Fatalf("decoded a %d-byte payload: %+v", min(len(data), 8), p)
		}
		p, err := DecodeSynAckPayload(data)
		if err != nil {
			return
		}
		again, err := DecodeSynAckPayload(p.Encode())
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("round trip: %+v became %+v, %v", p, again, err)
		}
	})
}

// FuzzDecodeInstallPayload: no input panics the decoder, whatever it
// accepts re-encodes to the same payload and names a non-empty range,
// and the old 8-byte epoch-only payload is refused.
func FuzzDecodeInstallPayload(f *testing.F) {
	gold := golden(f, "install.golden", goldenInstall.Encode())
	f.Add(gold)
	f.Add(gold[:8])
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8 {
			if p, err := DecodeInstallPayload(data[:8]); err == nil {
				t.Fatalf("decoded the 8-byte epoch-only payload %x: %+v", data[:8], p)
			}
		}
		p, err := DecodeInstallPayload(data)
		if err != nil {
			return
		}
		if p.Low == 0 || p.High < p.Low {
			t.Fatalf("accepted the empty range %d..%d", p.Low, p.High)
		}
		again, err := DecodeInstallPayload(p.Encode())
		if err != nil || *again != *p {
			t.Fatalf("round trip: %+v became %+v, %v", p, again, err)
		}
	})
}
