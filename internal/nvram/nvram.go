// Package nvram models the low-latency non-volatile memory of Section
// 5.1: CMOS RAM with battery backup, interposed between the log
// server's CPU and its logging disk. Appends complete at memory speed
// (this is what makes a log force cheap), contents survive power
// failures, and full tracks of buffered log data are drained to disk
// in a single write.
//
// The package also implements the guarded-update discipline suggested
// by Needham et al. ("How to Connect Stable Memory to a Computer"):
// each region carries a version, and a writer must present the version
// it read, so a wild store by buggy software is rejected rather than
// silently corrupting stable memory.
package nvram

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by NVRAM operations.
var (
	ErrFull       = errors.New("nvram: buffer full")
	ErrStaleGuard = errors.New("nvram: guarded write presented a stale version")
	ErrPoweredOff = errors.New("nvram: device is powered off")
)

// NVRAM is a battery-backed memory region. It is divided into a log
// staging buffer (append/drain) and a set of fixed guarded cells used
// for small critical state (active interval tails, the epoch
// representative's value). The object survives a simulated server
// crash: the owning test or harness keeps the *NVRAM and hands it to
// the restarted server, modelling the battery.
type NVRAM struct {
	mu sync.Mutex

	buf       []byte
	size      int
	poweredOn bool
	// drained counts every byte Drain has removed since the device was
	// made: the buffer's head pointer, kept in the same stable memory.
	drained int64

	cells map[string]*cell
}

type cell struct {
	version uint64
	value   []byte
}

// New returns an NVRAM with a staging buffer of size bytes.
func New(size int) *NVRAM {
	if size < 0 {
		size = 0
	}
	return &NVRAM{
		size:      size,
		buf:       make([]byte, 0, size),
		poweredOn: true,
		cells:     make(map[string]*cell),
	}
}

// Size returns the staging buffer capacity in bytes.
func (n *NVRAM) Size() int { return n.size }

// Len returns the number of staged bytes.
func (n *NVRAM) Len() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.buf)
}

// Free returns the remaining staging capacity.
func (n *NVRAM) Free() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.size - len(n.buf)
}

// Append stages p. It fails with ErrFull when p does not fit; the
// caller is expected to drain a track to disk and retry.
func (n *NVRAM) Append(p []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.poweredOn {
		return ErrPoweredOff
	}
	if len(n.buf)+len(p) > n.size {
		return fmt.Errorf("%w: %d staged + %d > %d", ErrFull, len(n.buf), len(p), n.size)
	}
	n.buf = append(n.buf, p...)
	return nil
}

// Staged returns a copy of the currently staged bytes.
func (n *NVRAM) Staged() []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]byte, len(n.buf))
	copy(out, n.buf)
	return out
}

// Drain removes and returns up to max staged bytes from the front of
// the buffer (a track's worth, typically), after the caller has
// written them durably to disk.
func (n *NVRAM) Drain(max int) []byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	if max < 0 || max > len(n.buf) {
		max = len(n.buf)
	}
	out := make([]byte, max)
	copy(out, n.buf[:max])
	remain := copy(n.buf, n.buf[max:])
	n.buf = n.buf[:remain]
	n.drained += int64(max)
	return out
}

// Drained returns how many bytes Drain has removed in the device's
// lifetime. It survives a Crash with the buffer, so a recovering owner
// can tell which of the bytes it staged have left the buffer.
func (n *NVRAM) Drained() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.drained
}

// Crash simulates loss of power to the host while the battery keeps
// the memory alive: staged bytes and cells are retained. The device is
// marked off until Restart, mirroring the host being down.
func (n *NVRAM) Crash() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.poweredOn = false
}

// Restart powers the device back on after a Crash.
func (n *NVRAM) Restart() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.poweredOn = true
}

// ReadCell returns the value and version of a guarded cell. A cell
// that was never written has version 0 and a nil value.
func (n *NVRAM) ReadCell(name string) (value []byte, version uint64, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.poweredOn {
		return nil, 0, ErrPoweredOff
	}
	c := n.cells[name]
	if c == nil {
		return nil, 0, nil
	}
	out := make([]byte, len(c.value))
	copy(out, c.value)
	return out, c.version, nil
}

// WriteCell performs a guarded update of a cell: the write succeeds
// only when prevVersion matches the cell's current version, in which
// case the version advances by one. This implements the hardware check
// Needham et al. propose — each new value must have been computed from
// the previous value.
func (n *NVRAM) WriteCell(name string, prevVersion uint64, value []byte) (newVersion uint64, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.poweredOn {
		return 0, ErrPoweredOff
	}
	c := n.cells[name]
	if c == nil {
		c = &cell{}
		n.cells[name] = c
	}
	if c.version != prevVersion {
		return 0, fmt.Errorf("%w: cell %q at version %d, caller read %d", ErrStaleGuard, name, c.version, prevVersion)
	}
	c.value = make([]byte, len(value))
	copy(c.value, value)
	c.version++
	return c.version, nil
}

// Cells returns the names of all written cells, for recovery scans.
func (n *NVRAM) Cells() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	names := make([]string, 0, len(n.cells))
	for name := range n.cells {
		names = append(names, name)
	}
	return names
}
