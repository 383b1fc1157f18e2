package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"distlog/internal/record"
	"distlog/internal/server"
	"distlog/internal/storage"
	"distlog/internal/transport"
	"distlog/internal/wire"
)

// tapEndpoint counts what a client sends by type and which error codes
// it receives.
type tapEndpoint struct {
	transport.Endpoint
	sent       [256]atomic.Uint64
	notStaged  atomic.Uint64
	installAck atomic.Uint64
}

func (e *tapEndpoint) Send(to string, data []byte) error {
	if pkt, err := wire.Decode(data); err == nil {
		e.sent[pkt.Type].Add(1)
	}
	return e.Endpoint.Send(to, data)
}

func (e *tapEndpoint) Recv(timeout time.Duration) (transport.Packet, error) {
	p, err := e.Endpoint.Recv(timeout)
	if err != nil {
		return p, err
	}
	if pkt, derr := wire.Decode(p.Data); derr == nil {
		switch pkt.Type {
		case wire.TErrResp:
			if ep, err := wire.DecodeErrPayload(pkt.Payload); err == nil && ep.Code == wire.CodeNotStaged {
				e.notStaged.Add(1)
			}
		case wire.TInstallCopiesResp:
			e.installAck.Add(1)
		}
	}
	return p, nil
}

// TestOpenUnderLossDuplicationAndReorder opens a log 200 times over a
// network that drops, duplicates and reorders packets. InstallCopies
// leaves right behind its CopyLog frames, so reordering delivers some
// installs ahead of a copy: those must be refused, never acknowledged —
// after every Open each write-set server holds the whole re-copied
// range under the new epoch. The first reads come with the handshake,
// so no Open makes an epoch-read call, nor an interval-list call until
// the lists outgrow the handshake's page.
func TestOpenUnderLossDuplicationAndReorder(t *testing.T) {
	c := newCluster(t, "s1", "s2", "s3")
	c.net.SetFaults(transport.Faults{DropProb: 0.02, DupProb: 0.05, MaxDelay: 2 * time.Millisecond})
	const opens, delta = 200, 4
	var tap *tapEndpoint
	var refused, acked uint64
	for i := 0; i < opens; i++ {
		// Each Open adds intervals and nothing truncates: past one page,
		// the older pages of a list take calls.
		paged := false
		for _, addr := range c.names {
			paged = paged || len(c.stores[addr].Intervals(1)) >= wire.MaxHelloIntervals
		}
		l, err := c.openClient(1, 2, func(cfg *Config) {
			tap = &tapEndpoint{Endpoint: cfg.Endpoint}
			cfg.Endpoint = tap
			cfg.Delta = delta
			cfg.CallTimeout = 25 * time.Millisecond
			cfg.Retries = 4
		})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		end := l.EndOfLog()
		low := record.LSN(1)
		if end > 2*delta {
			low = end - 2*delta + 1
		}
		for _, addr := range l.WriteSet() {
			if !coveredAt(c.stores[addr].Intervals(1), l.Epoch(), low, end) {
				t.Fatalf("open %d: %s lacks LSNs %d..%d at epoch %d: %v", i, addr, low, end, l.Epoch(), c.stores[addr].Intervals(1))
			}
		}
		if n := tap.sent[wire.TEpochReadReq].Load(); n != 0 {
			t.Fatalf("open %d made %d epoch-read calls; the handshake carries the read", i, n)
		}
		if n := tap.sent[wire.TIntervalListReq].Load(); n != 0 && !paged {
			t.Fatalf("open %d made %d interval-list calls for lists the handshake carried whole", i, n)
		}
		refused += tap.notStaged.Load()
		acked += tap.installAck.Load()
		for j := 0; j < 3; j++ {
			if _, err := l.WriteLog([]byte(fmt.Sprintf("o%d-%d", i, j))); err != nil {
				t.Fatal(err)
			}
		}
		l.Force() // a failed force leaves a doubtful tail for the next Open
		l.Close()
	}
	t.Logf("%d opens: %d installs refused ahead of their copies, %d acknowledged", opens, refused, acked)
	if refused == 0 {
		t.Fatal("no install overtook its copies: the test did not exercise the refusal")
	}
}

// coveredAt reports whether one interval of epoch covers low..high.
func coveredAt(ivs []record.Interval, epoch record.Epoch, low, high record.LSN) bool {
	for _, iv := range ivs {
		if iv.Epoch == epoch && iv.Low <= low && high <= iv.High {
			return true
		}
	}
	return false
}

// TestHelloTakenOnceAcrossSynRetransmit: a handshake whose first Syn
// went unanswered keeps the reads of the SynAck it accepted — a late
// or duplicated SynAck changes nothing — and hands each part out once,
// to the initialization that dialed, and only once: the second taker,
// or any other caller, makes the call.
func TestHelloTakenOnceAcrossSynRetransmit(t *testing.T) {
	net := transport.NewNetwork(3)
	srv := net.Endpoint("srv")
	cli := net.Endpoint("cli")
	const op = 77
	sess := newSession(cli, "srv", 1, 500, 0, time.Millisecond, 30*time.Millisecond, 3)
	sess.initOp = op
	go func() { // the client's receive pump
		for {
			p, err := cli.Recv(0)
			if err != nil {
				return
			}
			if pkt, err := wire.Decode(p.Data); err == nil {
				sess.deliver(&pkt)
			}
		}
	}()
	defer cli.Close()
	defer srv.Close()

	done := make(chan error, 1)
	go func() { done <- sess.handshake() }()
	recvSyn := func() wire.Packet {
		t.Helper()
		p, err := srv.Recv(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		pkt, err := wire.Decode(p.Data)
		if err != nil || pkt.Type != wire.TSyn {
			t.Fatalf("server got %v, %v; want a Syn", pkt.Type, err)
		}
		return pkt
	}
	first := recvSyn()
	second := recvSyn() // the first went unanswered: retransmitted
	peer := wire.NewPeer(srv, "cli", 1, 500, 0, time.Millisecond)
	peer.SetEstablished()
	synAck := func(to wire.Packet, epoch uint64) {
		p := wire.SynAckPayload{Intervals: []record.Interval{{Epoch: 1, Low: 1, High: 5}}, Epoch: epoch}
		peer.Send(wire.TSynAck, to.Seq, p.Encode())
	}
	synAck(second, 8)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	synAck(first, 7) // late answer to the abandoned Syn
	synAck(second, 9)
	time.Sleep(20 * time.Millisecond)

	if _, ok, _ := sess.helloEpoch(op + 1); ok {
		t.Fatal("another operation was handed the handshake's epoch read")
	}
	if v, ok, err := sess.helloEpoch(op); !ok || err != nil || v != 8 {
		t.Fatalf("helloEpoch = %d, %v, %v; want the accepted SynAck's 8", v, ok, err)
	}
	if _, ok, _ := sess.helloEpoch(op); ok {
		t.Fatal("the epoch read was handed out twice")
	}
	if ivs, ok := sess.helloIntervals(op); !ok || len(ivs) != 1 {
		t.Fatalf("helloIntervals = %v, %v", ivs, ok)
	}
	if _, ok := sess.helloIntervals(op); ok {
		t.Fatal("the interval list was handed out twice")
	}
}

// TestOpenWithoutEpochHostFails: servers that host no epoch
// representative fail Open with the error the epoch-read call gave
// before the handshake carried the read.
func TestOpenWithoutEpochHostFails(t *testing.T) {
	net := transport.NewNetwork(4)
	names := []string{"e1", "e2", "e3"}
	for _, name := range names {
		srv := server.New(server.Config{Name: name, Store: storage.NewMemStore(), Endpoint: net.Endpoint(name)})
		srv.Start()
		defer srv.Stop()
	}
	_, err := Open(Config{
		ClientID: 1, Servers: names, N: 2, Endpoint: net.Endpoint("client"),
		CallTimeout: 50 * time.Millisecond,
	})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeBadRequest || re.Message != "server hosts no epoch representative" {
		t.Fatalf("Open = %v; want the server's %q refusal", err, "server hosts no epoch representative")
	}
}
