package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"distlog/internal/record"
	"distlog/internal/transport"
)

// DefaultWindow is the default moving-window flow-control allocation:
// how many packets beyond those already accepted the peer may send.
const DefaultWindow = 512

// DefaultOverAllocPause is how long a sender pauses before exceeding
// its allocation. The paper: "Deadlocks are prevented by allowing
// either party to exceed its allocation, so long as it pauses several
// seconds between packets to avoid overrunning the receiver."
const DefaultOverAllocPause = 2 * time.Second

// dedupWindow bounds the duplicate-detection memory: sequence numbers
// more than this far below the highest seen are assumed to be ancient
// duplicates and dropped.
const dedupWindow = 4096

// ErrNotEstablished is returned when sending data before the
// handshake completes.
var ErrNotEstablished = errors.New("wire: connection not established")

// Peer tracks one side of a protocol connection: outgoing sequence
// numbers, the allocation granted by the other party, duplicate
// detection for incoming packets, and the allocation we grant back.
// Sequence numbers are permanently unique because the connection
// identifier changes on every client restart (clients derive it from
// their epoch number); a packet from a previous incarnation carries a
// stale ConnID and is rejected wholesale.
type Peer struct {
	Addr     string // peer network address
	ClientID record.ClientID
	ConnID   uint64

	ep             transport.Endpoint
	window         uint64
	overAllocPause time.Duration

	mu          sync.Mutex
	established bool
	nextSeq     uint64
	theirAlloc  uint64
	accepted    uint64 // count of distinct packets accepted from peer
	highestSeen uint64
	seen        map[uint64]struct{}

	stats PeerStats
}

// PeerStats counts protocol events for tests and capacity reports.
type PeerStats struct {
	Sent           uint64
	Received       uint64
	Duplicates     uint64
	StaleConnID    uint64
	OverAllocWaits uint64
}

// NewPeer creates the protocol state for one peer relationship.
// window == 0 selects DefaultWindow; pause == 0 selects
// DefaultOverAllocPause.
func NewPeer(ep transport.Endpoint, addr string, clientID record.ClientID, connID uint64, window uint64, pause time.Duration) *Peer {
	if window == 0 {
		window = DefaultWindow
	}
	if pause == 0 {
		pause = DefaultOverAllocPause
	}
	return &Peer{
		Addr:           addr,
		ClientID:       clientID,
		ConnID:         connID,
		ep:             ep,
		window:         window,
		overAllocPause: pause,
		theirAlloc:     window, // initial grant until the first packet arrives
		seen:           make(map[uint64]struct{}),
	}
}

// Established reports whether the handshake completed.
func (p *Peer) Established() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.established
}

// SetEstablished marks the handshake complete.
func (p *Peer) SetEstablished() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.established = true
}

// Stats returns a copy of the event counters.
func (p *Peer) Stats() PeerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// grant computes the allocation we advertise to the peer: everything
// accepted so far plus the window.
func (p *Peer) grant() uint64 { return p.accepted + p.window }

// Send builds, encodes and transmits a packet of the given type. It
// assigns the next sequence number and stamps the current allocation
// grant. Handshake types may be sent before establishment; data types
// may not. When the peer's allocation is exhausted, Send pauses (the
// paper's deadlock-avoidance rule) and then proceeds. The frame is
// encoded into a pooled buffer, so a Send allocates nothing.
func (p *Peer) Send(t Type, respTo uint64, payload []byte) (uint64, error) {
	return p.send(0, t, respTo, payload, nil, 0, nil)
}

// Reserve assigns the next sequence number without transmitting
// anything, so the caller can register for the reply before the request
// can possibly be answered; SendAs or SendRecordsAs then transmits
// under it. A reserved number that is never sent is simply skipped.
func (p *Peer) Reserve() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.nextSeq++
	return p.nextSeq
}

// SendAs is Send for a request whose sequence number was reserved.
func (p *Peer) SendAs(seq uint64, t Type, payload []byte) error {
	_, err := p.send(seq, t, 0, payload, nil, 0, nil)
	return err
}

// SendRecordsAs is SendRecords for a request whose sequence number was
// reserved.
func (p *Peer) SendRecordsAs(seq uint64, t Type, epoch record.Epoch, recs []record.Record) error {
	if len(recs) == 0 {
		return fmt.Errorf("wire: SendRecordsAs with no records")
	}
	_, err := p.send(seq, t, 0, nil, nil, epoch, recs)
	return err
}

// SendRecords transmits a RecordsPayload-bearing packet (WriteLog,
// ForceLog, CopyLog, read responses), encoding the grouped records
// directly into the pooled frame buffer — the streaming write path
// never materializes an intermediate payload slice.
func (p *Peer) SendRecords(t Type, respTo uint64, epoch record.Epoch, recs []record.Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, fmt.Errorf("wire: SendRecords with no records")
	}
	return p.send(0, t, respTo, nil, nil, epoch, recs)
}

// SendStreamChunk transmits one TReadStreamData chunk of a streaming
// read reply: the chunk header (index, done flag) followed by the epoch
// and grouped records, all encoded directly into the pooled frame
// buffer. The final chunk of a stream may carry zero records (done with
// nothing further to send).
func (p *Peer) SendStreamChunk(respTo uint64, index uint32, done bool, epoch record.Epoch, recs []record.Record) (uint64, error) {
	var hdr [streamChunkHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], index)
	if done {
		hdr[4] = streamChunkDone
	}
	if recs == nil {
		recs = []record.Record{} // non-nil: force RecordsPayload framing
	}
	return p.send(0, TReadStreamData, respTo, nil, hdr[:], epoch, recs)
}

// SendLSN transmits an LSNPayload-bearing packet (NewHighLSN acks,
// read requests) without allocating the 8-byte payload separately.
func (p *Peer) SendLSN(t Type, respTo uint64, lsn record.LSN) (uint64, error) {
	var scratch [8]byte
	binary.BigEndian.PutUint64(scratch[:], uint64(lsn))
	return p.send(0, t, respTo, scratch[:], nil, 0, nil)
}

// SendWriteAck transmits the cumulative write acknowledgement
// (NewHighLSN with a WriteAckPayload) without allocating the 16-byte
// payload separately.
func (p *Peer) SendWriteAck(respTo uint64, stable, appended record.LSN) (uint64, error) {
	var scratch [16]byte
	binary.BigEndian.PutUint64(scratch[:8], uint64(stable))
	binary.BigEndian.PutUint64(scratch[8:], uint64(appended))
	return p.send(0, TNewHighLSN, respTo, scratch[:], nil, 0, nil)
}

// send transmits one packet under seq, a number from Reserve, or —
// seq zero — under the next one.
func (p *Peer) send(seq uint64, t Type, respTo uint64, payload, prefix []byte, epoch record.Epoch, recs []record.Record) (uint64, error) {
	p.mu.Lock()
	if !p.established && t != TSyn && t != TSynAck && t != TAck && t != TRst {
		p.mu.Unlock()
		return 0, ErrNotEstablished
	}
	if seq == 0 {
		p.nextSeq++
		seq = p.nextSeq
	}
	if seq > p.theirAlloc && t != TRst {
		p.stats.OverAllocWaits++
		pause := p.overAllocPause
		p.mu.Unlock()
		time.Sleep(pause)
		p.mu.Lock()
	}
	alloc := p.grant()
	p.stats.Sent++
	p.mu.Unlock()

	buf := getFrame()
	frame, err := appendFrame(*buf, t, p.ConnID, seq, alloc, respTo, p.ClientID, payload, prefix, epoch, recs)
	if err != nil {
		putFrame(buf)
		return 0, err
	}
	*buf = frame
	err = p.ep.Send(p.Addr, frame)
	putFrame(buf)
	return seq, err
}

// SendRst answers a stray packet with a connection reset without
// building any per-connection state — a flood of stale or scanning
// packets costs the server one pooled frame per reply, nothing more.
// The offending ConnID is echoed so the sender can tell which
// incarnation was rejected.
func SendRst(ep transport.Endpoint, to string, clientID record.ClientID, connID, respTo uint64) error {
	buf := getFrame()
	frame, err := appendFrame(*buf, TRst, connID, 0, 0, respTo, clientID, nil, nil, 0, nil)
	if err != nil {
		putFrame(buf)
		return err
	}
	*buf = frame
	err = ep.Send(to, frame)
	putFrame(buf)
	return err
}

// Observe performs receive-side bookkeeping for a decoded packet from
// this peer: connection-identifier matching, duplicate detection, and
// allocation accounting. It returns false when the packet must be
// ignored (stale incarnation or duplicate).
func (p *Peer) Observe(pkt *Packet) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pkt.ConnID != p.ConnID {
		p.stats.StaleConnID++
		return false
	}
	if pkt.Alloc > p.theirAlloc {
		p.theirAlloc = pkt.Alloc
	}
	// Duplicate detection across the dedup window.
	if pkt.Seq+dedupWindow <= p.highestSeen {
		p.stats.Duplicates++
		return false
	}
	if _, dup := p.seen[pkt.Seq]; dup {
		p.stats.Duplicates++
		return false
	}
	p.seen[pkt.Seq] = struct{}{}
	if pkt.Seq > p.highestSeen {
		p.highestSeen = pkt.Seq
	}
	// Amortized prune of entries that fell out of the dedup window.
	if len(p.seen) > 2*dedupWindow && p.highestSeen > dedupWindow {
		low := p.highestSeen - dedupWindow
		for s := range p.seen {
			if s < low {
				delete(p.seen, s)
			}
		}
	}
	p.accepted++
	p.stats.Received++
	return true
}

// SendErr is a convenience for answering a request with TErrResp.
func (p *Peer) SendErr(respTo uint64, code uint16, msg string) error {
	ep := ErrPayload{Code: code, Message: msg}
	_, err := p.Send(TErrResp, respTo, ep.Encode())
	return err
}
