package transport

import (
	"sync"
	"time"
)

// DualEndpoint binds two network attachments into one, implementing
// the availability arrangement of Section 2: "Because processing nodes
// depend on being able to do logging, network failures would be
// disastrous ... One way to achieve reliability is to have two
// complete networks, including two network interfaces in each
// processing node."
//
// Sends to a peer prefer the network that peer was last heard on (so
// replies return on the interface the request arrived on); otherwise
// the current default network is used. Datagram loss is silent, so the
// protocol layer calls Unanswered when its retransmissions to a peer go
// unanswered — that switches the default network and forgets per-peer
// affinities, moving all traffic onto the other network. Receives merge
// both interfaces; protocol-level duplicate detection makes hearing the
// same packet on both networks harmless.
type DualEndpoint struct {
	eps [2]Endpoint

	mu        sync.Mutex
	preferred int
	affinity  map[string]int // peer address -> network last heard on
	sentOn    map[string]int // peer address -> network last sent on
	closed    bool

	recv chan Packet
	done chan struct{}
	wg   sync.WaitGroup
}

// NewDualEndpoint combines two endpoints (one per physical network).
// Close closes both.
func NewDualEndpoint(a, b Endpoint) *DualEndpoint {
	d := &DualEndpoint{
		eps:      [2]Endpoint{a, b},
		affinity: make(map[string]int),
		sentOn:   make(map[string]int),
		recv:     make(chan Packet, 256),
		done:     make(chan struct{}),
	}
	for i, ep := range d.eps {
		i, ep := i, ep
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			for {
				pkt, err := ep.Recv(0)
				if err != nil {
					return
				}
				d.mu.Lock()
				d.affinity[pkt.From] = i
				d.mu.Unlock()
				select {
				case d.recv <- pkt:
				case <-d.done:
					return
				}
			}
		}()
	}
	return d
}

// Send implements Endpoint.
func (d *DualEndpoint) Send(to string, data []byte) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	p, ok := d.affinity[to]
	if !ok {
		p = d.preferred
	}
	d.sentOn[to] = p
	d.mu.Unlock()

	if err := d.eps[p].Send(to, data); err == nil {
		return nil
	}
	// An outright send error (interface down): use the other network
	// and remember it for this peer.
	other := 1 - p
	err := d.eps[other].Send(to, data)
	if err == nil {
		d.mu.Lock()
		d.affinity[to] = other
		d.sentOn[to] = other
		d.mu.Unlock()
	}
	return err
}

// Unanswered reports that retransmissions to peer went unanswered —
// the signal that the network they went out on, not the peer, is dead.
// If that network is the default, the default switches to the other one
// and per-peer affinities are forgotten, moving all traffic over. If
// the default already moved off it (several sessions timing out at
// once), only the peer's own affinity is dropped: the traffic moves
// once instead of flipping back onto the dead network.
func (d *DualEndpoint) Unanswered(peer string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if p, ok := d.sentOn[peer]; ok && p != d.preferred {
		delete(d.affinity, peer)
		return
	}
	d.preferred = 1 - d.preferred
	clear(d.affinity)
}

// Preferred returns the index (0 or 1) of the default network.
func (d *DualEndpoint) Preferred() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.preferred
}

// Recv implements Endpoint, merging both interfaces.
func (d *DualEndpoint) Recv(timeout time.Duration) (Packet, error) {
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case pkt := <-d.recv:
		return pkt, nil
	case <-d.done:
		return Packet{}, ErrClosed
	case <-timer:
		return Packet{}, ErrTimeout
	}
}

// Addr implements Endpoint: the first interface names the node.
func (d *DualEndpoint) Addr() string { return d.eps[0].Addr() }

// Close implements Endpoint, closing both interfaces.
func (d *DualEndpoint) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	close(d.done)
	err0 := d.eps[0].Close()
	err1 := d.eps[1].Close()
	d.wg.Wait()
	if err0 != nil {
		return err0
	}
	return err1
}
