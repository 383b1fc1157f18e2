package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"distlog/internal/record"
	"distlog/internal/transport"
)

func TestHoldersMergedOnly(t *testing.T) {
	merged := record.Merge(map[string][]record.Interval{
		"s1": {{Epoch: 1, Low: 1, High: 5}},
		"s2": {{Epoch: 1, Low: 1, High: 5}},
	})
	h := newHolders(merged)
	if got := h.serversFor(3); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Fatalf("serversFor(3) = %v", got)
	}
	if h.epochFor(3) != 1 {
		t.Fatalf("epochFor(3) = %d", h.epochFor(3))
	}
	if h.covered(6) {
		t.Fatal("LSN 6 covered")
	}
}

func TestHoldersLiveOverridesMerged(t *testing.T) {
	merged := record.Merge(map[string][]record.Interval{
		"s1": {{Epoch: 1, Low: 1, High: 10}},
		"s2": {{Epoch: 1, Low: 1, High: 10}},
	})
	h := newHolders(merged)
	// Recovery re-copied 9..10 at epoch 2 onto s2+s3.
	h.add(2, 9, 10, []string{"s2", "s3"})
	if got := h.serversFor(9); !reflect.DeepEqual(got, []string{"s2", "s3"}) {
		t.Fatalf("serversFor(9) = %v", got)
	}
	if h.epochFor(9) != 2 {
		t.Fatalf("epochFor(9) = %d", h.epochFor(9))
	}
	// Below the live entry the merged view still answers.
	if got := h.serversFor(8); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Fatalf("serversFor(8) = %v", got)
	}
}

func TestHoldersAddCoalescesContiguous(t *testing.T) {
	h := newHolders(record.Merge(nil))
	h.add(1, 1, 5, []string{"a", "b"})
	h.add(1, 6, 9, []string{"a", "b"}) // same epoch, contiguous, same servers
	if len(h.live) != 1 || h.live[0].iv.High != 9 {
		t.Fatalf("live = %+v", h.live)
	}
	h.add(1, 10, 12, []string{"a", "c"}) // different servers: new entry
	if len(h.live) != 2 {
		t.Fatalf("live = %+v", h.live)
	}
	h.add(1, 20, 22, []string{"a", "c"}) // gap: new entry
	if len(h.live) != 3 {
		t.Fatalf("live = %+v", h.live)
	}
}

func TestHoldersNewestLiveEntryWins(t *testing.T) {
	h := newHolders(record.Merge(nil))
	h.add(2, 5, 9, []string{"a", "b"})
	h.add(3, 7, 9, []string{"b", "c"}) // re-copied at a higher epoch
	if h.epochFor(8) != 3 {
		t.Fatalf("epochFor(8) = %d", h.epochFor(8))
	}
	if got := h.serversFor(8); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("serversFor(8) = %v", got)
	}
	if h.epochFor(6) != 2 {
		t.Fatalf("epochFor(6) = %d", h.epochFor(6))
	}
}

func TestHoldersAddCopiesServerSlice(t *testing.T) {
	h := newHolders(record.Merge(nil))
	servers := []string{"a", "b"}
	h.add(1, 1, 1, servers)
	servers[0] = "mutated"
	if h.serversFor(1)[0] != "a" {
		t.Fatal("holders alias the caller's slice")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no N", Config{Servers: []string{"a", "b"}}},
		{"too few servers", Config{N: 3, Servers: []string{"a", "b"}}},
		{"no endpoint", Config{N: 1, Servers: []string{"a"}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Open(c.cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{N: 1, Servers: []string{"a"}, Endpoint: dummyEndpoint{}}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Delta != 16 || cfg.CallTimeout == 0 || cfg.Retries == 0 {
		t.Fatalf("defaults not filled: %+v", cfg)
	}
}

type dummyEndpoint struct{}

func (dummyEndpoint) Send(string, []byte) error { return nil }
func (dummyEndpoint) Recv(time.Duration) (transport.Packet, error) {
	return transport.Packet{}, errDummy
}
func (dummyEndpoint) Addr() string { return "dummy" }
func (dummyEndpoint) Close() error { return nil }

var errDummy = errors.New("dummy endpoint")
