package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sync"
	"time"
)

// addrCacheLimit bounds the peer-address string/UDPAddr caches. A
// server talks to a bounded client population; a cache overflowing
// (an address-scanning flood) is flushed wholesale rather than
// tracked, keeping the hot path allocation-free for real peers.
const addrCacheLimit = 4096

// udpReceiveBuffer is the socket receive buffer an endpoint asks for:
// room for several streams' windows of MaxPacketSize datagrams.
const udpReceiveBuffer = 1 << 20

// UDPEndpoint implements Endpoint over a real UDP socket. Addresses
// are host:port strings. UDP already provides the datagram semantics
// the protocol assumes (loss, duplication, reordering possible; no
// connection state).
//
// Receive buffers are pooled: Recv hands out packets whose Data
// aliases a pooled buffer, and callers that Release packets when done
// (the server's write pipeline does) make the receive path
// allocation-free in the steady state. Callers that never Release
// simply fall back to one allocation per packet, as before.
type UDPEndpoint struct {
	conn *net.UDPConn
	pool sync.Pool

	mu    sync.Mutex
	froms map[netip.AddrPort]string // receive side: peer -> display string
	tos   map[string]*net.UDPAddr   // send side: display string -> resolved addr
}

// ListenUDP opens an endpoint bound to addr (e.g. "127.0.0.1:9000",
// or "127.0.0.1:0" for an ephemeral port).
func ListenUDP(addr string) (*UDPEndpoint, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	// A recovery scan keeps up to a credit window of full-size reply
	// packets in flight per stream, and the kernel charges each against
	// the buffer at roughly twice its size; the usual 208 KiB default
	// then drops packets whenever the receive pump is descheduled, and
	// each drop costs the reader a call timeout. Best effort: the kernel
	// clamps the request to net.core.rmem_max.
	_ = conn.SetReadBuffer(udpReceiveBuffer)
	u := &UDPEndpoint{
		conn:  conn,
		froms: make(map[netip.AddrPort]string),
		tos:   make(map[string]*net.UDPAddr),
	}
	u.pool.New = func() interface{} {
		b := make([]byte, MaxPacketSize)
		return &b
	}
	return u, nil
}

// Send implements Endpoint.
func (u *UDPEndpoint) Send(to string, data []byte) error {
	if len(data) > MaxPacketSize {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(data))
	}
	ua, err := u.resolve(to)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrNoSuchAddr, to, err)
	}
	_, err = u.conn.WriteToUDP(data, ua)
	return err
}

// resolve caches destination addresses so the per-packet send path
// does not re-resolve (and re-allocate) the same peer address.
func (u *UDPEndpoint) resolve(to string) (*net.UDPAddr, error) {
	u.mu.Lock()
	ua := u.tos[to]
	u.mu.Unlock()
	if ua != nil {
		return ua, nil
	}
	ua, err := net.ResolveUDPAddr("udp", to)
	if err != nil {
		return nil, err
	}
	u.mu.Lock()
	if len(u.tos) >= addrCacheLimit {
		u.tos = make(map[string]*net.UDPAddr)
	}
	u.tos[to] = ua
	u.mu.Unlock()
	return ua, nil
}

// fromString returns the cached display string for a peer address,
// avoiding the per-packet From allocation on the receive path.
func (u *UDPEndpoint) fromString(ap netip.AddrPort) string {
	// Unmap 4-in-6 addresses so the rendered string matches what
	// net.UDPAddr.String() produced ("1.2.3.4:5", not
	// "[::ffff:1.2.3.4]:5") — peers compare these strings against
	// configured server addresses.
	if ap.Addr().Is4In6() {
		ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}
	u.mu.Lock()
	s, ok := u.froms[ap]
	if !ok {
		if len(u.froms) >= addrCacheLimit {
			u.froms = make(map[netip.AddrPort]string)
		}
		s = ap.String()
		u.froms[ap] = s
	}
	u.mu.Unlock()
	return s
}

// Recv implements Endpoint. The returned packet's Data aliases a
// pooled buffer; call Packet.Release when finished with it.
func (u *UDPEndpoint) Recv(timeout time.Duration) (Packet, error) {
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := u.conn.SetReadDeadline(deadline); err != nil {
		if errors.Is(err, net.ErrClosed) {
			return Packet{}, ErrClosed
		}
		return Packet{}, err
	}
	buf := u.pool.Get().(*[]byte)
	n, from, err := u.conn.ReadFromUDPAddrPort(*buf)
	if err != nil {
		u.pool.Put(buf)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return Packet{}, ErrTimeout
		}
		if errors.Is(err, net.ErrClosed) {
			return Packet{}, ErrClosed
		}
		return Packet{}, err
	}
	return Packet{From: u.fromString(from), Data: (*buf)[:n], pool: &u.pool, buf: buf}, nil
}

// Addr implements Endpoint.
func (u *UDPEndpoint) Addr() string { return u.conn.LocalAddr().String() }

// Close implements Endpoint.
func (u *UDPEndpoint) Close() error { return u.conn.Close() }
