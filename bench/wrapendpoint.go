package main

import (
	"time"

	"distlog"
	"distlog/internal/transport"
	"distlog/internal/wire"
)

// tracedEndpoint passes every datagram through unchanged and classifies
// it with wire.Decode on the way: packet and byte counts by type, the
// one-way time of each packet (Send here → Recv return on the peer's
// wrapper, matched on sender address, connection and sequence number),
// and on a server's endpoint how long force-carrying frames and read
// requests dwell before their reply leaves.
type tracedEndpoint struct {
	distlog.Endpoint
	t    *tracer
	role int
	idx  int // server index, or the client node's ClientID
}

func (t *tracer) wrapEndpoint(ep distlog.Endpoint, role, idx int) distlog.Endpoint {
	if role == nodeClient {
		t.mu.Lock()
		t.clients[ep.Addr()] = uint32(idx)
		t.mu.Unlock()
	}
	return &tracedEndpoint{Endpoint: ep, t: t, role: role, idx: idx}
}

func (e *tracedEndpoint) Send(to string, data []byte) error {
	c := e.t.counts()
	if c == nil {
		return e.Endpoint.Send(to, data)
	}
	start := e.t.now()
	// Note the packet before it leaves: an undelayed in-memory network
	// hands it to the receiver inside Send.
	if pkt, err := wire.Decode(data); err == nil {
		e.noteSend(c, to, &pkt, len(data), start)
	}
	err := e.Endpoint.Send(to, data)
	sp := span{kind: spanSend, server: -1, start: start, dur: e.t.now() - start}
	if e.role == nodeServer {
		sp.server = int8(e.idx)
	} else {
		sp.node = uint32(e.idx)
	}
	e.t.add(sp)
	return err
}

func (e *tracedEndpoint) Recv(timeout time.Duration) (transport.Packet, error) {
	p, err := e.Endpoint.Recv(timeout)
	if err != nil {
		return p, err
	}
	c := e.t.counts()
	if c == nil {
		return p, nil
	}
	now := e.t.now()
	if pkt, derr := wire.Decode(p.Data); derr == nil {
		e.noteRecv(c, p.From, &pkt, len(p.Data), now)
	}
	return p, nil
}

func (e *tracedEndpoint) noteSend(c *phaseCounts, to string, pkt *wire.Packet, size int, now int64) {
	c.packets[e.role][dirSend][pkt.Type].Add(1)
	c.bytes[e.role][dirSend].Add(uint64(size))
	lsn, _ := packetLSN(pkt)
	t := e.t
	t.mu.Lock()
	defer t.mu.Unlock()
	k := flightKey{e.Addr(), pkt.ConnID, pkt.Seq}
	if _, dup := t.flights[k]; dup {
		c.unmatched.Add(1)
	}
	t.flights[k] = flight{start: now, lsn: lsn}
	if e.role != nodeServer {
		return
	}
	switch {
	case pkt.Type == wire.TNewHighLSN:
		// The ack covers every force of this session at or below its
		// stable mark: their dwell ends here.
		sk := sessKey{e.idx, to, uint64(pkt.ClientID)}
		pend := t.forces[sk]
		keep := pend[:0]
		for _, pf := range pend {
			if pf.lsn <= lsn {
				t.add(span{kind: spanForceDwell, server: int8(e.idx), node: baseClient(uint64(pkt.ClientID)),
					start: pf.recv, dur: now - pf.recv, client: uint64(pkt.ClientID), lsn: pf.lsn})
			} else {
				keep = append(keep, pf)
			}
		}
		t.forces[sk] = keep
	case pkt.Type.IsResponse():
		if pr := t.reads[flightKey{to, pkt.ConnID, pkt.RespTo}]; pr != nil {
			pr.last = now
		}
	}
}

func (e *tracedEndpoint) noteRecv(c *phaseCounts, from string, pkt *wire.Packet, size int, now int64) {
	c.packets[e.role][dirRecv][pkt.Type].Add(1)
	c.bytes[e.role][dirRecv].Add(uint64(size))
	lsn, records := packetLSN(pkt)
	if e.role == nodeServer && records > 0 {
		c.frames.Add(1)
		c.frameRecords.Add(uint64(records))
	}
	force := pkt.Type == wire.TForceLog || pkt.Type == wire.TForcePoint
	t := e.t
	t.mu.Lock()
	defer t.mu.Unlock()
	k := flightKey{from, pkt.ConnID, pkt.Seq}
	if f, ok := t.flights[k]; ok {
		delete(t.flights, k)
		sp := span{kind: spanOneWay, server: -1, start: f.start, dur: now - f.start, client: uint64(pkt.ClientID), lsn: f.lsn}
		// A one-way span belongs to the client node at one of its ends.
		if e.role == nodeServer {
			sp.server = int8(e.idx)
			sp.node = t.clients[from]
		} else {
			sp.node = uint32(e.idx)
		}
		t.add(sp)
	}
	if e.role != nodeServer {
		return
	}
	switch {
	case force:
		sk := sessKey{e.idx, from, uint64(pkt.ClientID)}
		t.forces[sk] = append(t.forces[sk], pendingForce{lsn: lsn, recv: now})
	case pkt.Type.IsRequest():
		t.reads[k] = &pendingRead{server: e.idx, node: t.clients[from], client: uint64(pkt.ClientID), recv: now}
	}
}

// finish turns every answered read request into a read-dwell span and
// reports how many sends never met their receive.
func (t *tracer) finish() (unmatchedSends int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, pr := range t.reads {
		if pr.last > 0 {
			t.add(span{kind: spanReadDwell, server: int8(pr.server), node: pr.node, start: pr.recv, dur: pr.last - pr.recv, client: pr.client})
		}
		delete(t.reads, k)
	}
	n := len(t.flights)
	for p := range t.count {
		n += int(t.count[p].unmatched.Load())
	}
	return n
}
