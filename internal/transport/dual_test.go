package transport

import (
	"errors"
	"testing"
	"time"
)

// dualRig: nodes "a" and "b", each attached to two separate networks.
type dualRig struct {
	net1, net2 *Network
	a, b       *DualEndpoint
}

func newDualRig(t *testing.T) *dualRig {
	t.Helper()
	r := &dualRig{net1: NewNetwork(1), net2: NewNetwork(2)}
	r.a = NewDualEndpoint(r.net1.Endpoint("a"), r.net2.Endpoint("a"))
	r.b = NewDualEndpoint(r.net1.Endpoint("b"), r.net2.Endpoint("b"))
	t.Cleanup(func() { r.a.Close(); r.b.Close() })
	return r
}

func TestDualDelivery(t *testing.T) {
	r := newDualRig(t)
	if err := r.a.Send("b", []byte("hi")); err != nil {
		t.Fatal(err)
	}
	pkt, err := r.b.Recv(time.Second)
	if err != nil || string(pkt.Data) != "hi" || pkt.From != "a" {
		t.Fatalf("pkt = %+v, %v", pkt, err)
	}
}

func TestDualSurvivesNetwork1Death(t *testing.T) {
	r := newDualRig(t)
	// Network 1 dies completely.
	r.net1.SetFaults(Faults{DropProb: 1})
	// The first send vanishes (datagram semantics) ...
	r.a.Send("b", []byte("lost"))
	if _, err := r.b.Recv(30 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatal("packet crossed a dead network")
	}
	// ... the protocol layer notices the silence and flips.
	r.a.Unanswered("b")
	if err := r.a.Send("b", []byte("via-net2")); err != nil {
		t.Fatal(err)
	}
	pkt, err := r.b.Recv(time.Second)
	if err != nil || string(pkt.Data) != "via-net2" {
		t.Fatalf("pkt = %+v, %v", pkt, err)
	}
	// b replies on the network it heard a on (affinity), so the reply
	// also avoids the dead network without b ever flipping.
	if err := r.b.Send("a", []byte("reply")); err != nil {
		t.Fatal(err)
	}
	pkt, err = r.a.Recv(time.Second)
	if err != nil || string(pkt.Data) != "reply" {
		t.Fatalf("reply = %+v, %v", pkt, err)
	}
}

func TestDualAffinityFollowsSender(t *testing.T) {
	r := newDualRig(t)
	// a flips to network 2 and sends; b's replies must use network 2.
	r.a.Unanswered("b")
	r.a.Send("b", []byte("x"))
	if _, err := r.b.Recv(time.Second); err != nil {
		t.Fatal(err)
	}
	// Kill network 1 after b learned the affinity: replies still work.
	r.net1.SetFaults(Faults{DropProb: 1})
	r.b.Send("a", []byte("y"))
	if pkt, err := r.a.Recv(time.Second); err != nil || string(pkt.Data) != "y" {
		t.Fatalf("affinity reply: %+v, %v", pkt, err)
	}
}

func TestDualFlipTogglesPreferred(t *testing.T) {
	r := newDualRig(t)
	if r.a.Preferred() != 0 {
		t.Fatal("initial preferred != 0")
	}
	r.a.Send("b", []byte("x"))
	r.a.Unanswered("b")
	if r.a.Preferred() != 1 {
		t.Fatal("silence on the default network did not switch it")
	}
	r.a.Send("b", []byte("y"))
	r.a.Unanswered("b")
	if r.a.Preferred() != 0 {
		t.Fatal("silence on the second network did not switch back")
	}
}

// TestDualConcurrentSilencesSwitchOnce is the regression test for
// sessions timing out together — a force fans out to every write-set
// server at once — each flipping the default network: two flips put the
// traffic straight back on the dead network. Silence on a network the
// default already left changes nothing.
func TestDualConcurrentSilencesSwitchOnce(t *testing.T) {
	r := newDualRig(t)
	r.a.Send("b", []byte("x"))
	r.a.Send("c", []byte("x"))
	r.a.Unanswered("b")
	r.a.Unanswered("c")
	if r.a.Preferred() != 1 {
		t.Fatalf("two silences on network 0 left the default on %d", r.a.Preferred())
	}
}

func TestDualDuplicateDeliveryOnBothNetworksIsVisible(t *testing.T) {
	// If a sender transmits on both networks, the receiver sees both
	// copies; deduplication is (deliberately) the protocol layer's job.
	r := newDualRig(t)
	r.net1.Endpoint("a").Send("b", []byte("copy"))
	r.net2.Endpoint("a").Send("b", []byte("copy"))
	for i := 0; i < 2; i++ {
		if _, err := r.b.Recv(time.Second); err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
	}
}

func TestDualClose(t *testing.T) {
	r := newDualRig(t)
	if err := r.a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.a.Send("b", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if _, err := r.a.Recv(10 * time.Millisecond); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close: %v", err)
	}
	if err := r.a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
