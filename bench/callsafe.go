package main

import (
	"sync"

	"distlog"
	"distlog/internal/transport"
	"distlog/internal/wire"
)

// callSafeEndpoint works around a defect of the client at this commit so
// that the UDP workload can be measured at all. core's synchronous calls
// (the handshake, every *Req of distlog.Open and of a recovery scan)
// send the request first and register the channel its reply is
// delivered on afterwards. Over loopback UDP the reply wins that race in
// one Open out of ten to one out of two, depending on the machine; the
// reply is then dropped and the call waits a whole CallTimeout before it
// retries — 250 ms on a 30 ms restart — and four losses in a row fail
// the Open and with it the run.
//
// The wrapper hands a client's call requests to a goroutine of its own
// to send. The caller returns from Send at once and has registered its
// channel long before the datagram has left, let alone been answered.
// Everything else — streamed write frames, force points, acks, the
// whole commit path — is sent inline, untouched. When core registers
// before it sends, this file can go.
type callSafeEndpoint struct {
	distlog.Endpoint
	calls chan outbound
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

type outbound struct {
	to   string
	data []byte
}

// wireTypeOffset is where a frame's type byte sits: after the magic and
// the version (internal/wire/packet.go).
const wireTypeOffset = 3

func newCallSafeEndpoint(ep distlog.Endpoint) *callSafeEndpoint {
	// One slot per call a client can have outstanding is plenty: Open
	// issues them one at a time and a cursor keeps ReadAhead (8) going.
	e := &callSafeEndpoint{Endpoint: ep, calls: make(chan outbound, 64), stop: make(chan struct{})}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			select {
			case o := <-e.calls:
				_ = e.Endpoint.Send(o.to, o.data) // a lost request is the protocol's to retry
			case <-e.stop:
				return
			}
		}
	}()
	return e
}

func (e *callSafeEndpoint) Send(to string, data []byte) error {
	if len(data) <= wireTypeOffset {
		return e.Endpoint.Send(to, data)
	}
	if t := wire.Type(data[wireTypeOffset]); t != wire.TSyn && !t.IsRequest() {
		return e.Endpoint.Send(to, data)
	}
	// The caller reuses data once Send returns.
	o := outbound{to: to, data: append([]byte(nil), data...)}
	select {
	case e.calls <- o:
		return nil
	case <-e.stop:
		return transport.ErrClosed
	}
}

// Close stops the sending goroutine, waits for it and closes the socket.
func (e *callSafeEndpoint) Close() error {
	e.once.Do(func() { close(e.stop) })
	e.wg.Wait()
	return e.Endpoint.Close()
}
