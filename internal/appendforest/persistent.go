package appendforest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// PersistentForest is the append-forest in the representation Section
// 4.3 designs it for: every node is written once to append-only
// storage (modelling write-once optical disks) and never modified —
// an append emits exactly one fixed-size node whose child and forest
// pointers refer to previously written positions, and reads nothing:
// the root stack it links against is kept in memory. Searches read
// O(log n) nodes from the store.
//
// On reopen the structure is recovered by scanning the node log and
// replaying the forest's merge rule, which is fully determined by the
// node heights. The replay checks every node against the one Append
// would have written in its place, so a node log that decodes is a
// well-formed forest: no descent can loop or leave it.
type PersistentForest struct {
	store  NodeStore
	count  int64
	roots  []root // tree roots, leftmost first
	maxKey uint64

	// Where the last successful Lookup landed. The node log is the key
	// sequence, so a scan's next key is one position away: Lookup tries
	// the neighbour — one node read — before the O(log n) descent.
	lastPos int64
	lastKey uint64
	hasLast bool
}

// root is a tree root as the merge rule needs it: its position, and
// the height and minimum key a new parent copies from it.
type root struct {
	pos    int64
	height uint8
	min    uint64
}

// NodeStore is the append-only storage for encoded nodes. Nodes are
// exactly NodeSize bytes.
type NodeStore interface {
	// AppendNode writes one encoded node and returns its position
	// (ordinal index).
	AppendNode(buf []byte) (pos int64, err error)
	// ReadNode fills buf with the node at pos. A buf several nodes long
	// is filled with the node at pos and its successors, in one read.
	ReadNode(pos int64, buf []byte) error
	// Count returns the number of stored nodes.
	Count() (int64, error)
}

// NodeSize is the fixed encoded node size:
// key(8) min(8) payload(8) left(8) right(8) forest(8) height(1).
const NodeSize = 8*6 + 1

// scanChunk is how many nodes a sequential pass (replay, Scan) reads
// per store read.
const scanChunk = 8192

const nilPersist = int64(-1)

type pnode struct {
	key     uint64
	min     uint64
	payload int64
	left    int64
	right   int64
	forest  int64
	height  uint8
}

func (n *pnode) encode(buf []byte) {
	binary.BigEndian.PutUint64(buf[0:], n.key)
	binary.BigEndian.PutUint64(buf[8:], n.min)
	binary.BigEndian.PutUint64(buf[16:], uint64(n.payload))
	binary.BigEndian.PutUint64(buf[24:], uint64(n.left))
	binary.BigEndian.PutUint64(buf[32:], uint64(n.right))
	binary.BigEndian.PutUint64(buf[40:], uint64(n.forest))
	buf[48] = n.height
}

func decodePNode(buf []byte) pnode {
	return pnode{
		key:     binary.BigEndian.Uint64(buf[0:]),
		min:     binary.BigEndian.Uint64(buf[8:]),
		payload: int64(binary.BigEndian.Uint64(buf[16:])),
		left:    int64(binary.BigEndian.Uint64(buf[24:])),
		right:   int64(binary.BigEndian.Uint64(buf[32:])),
		forest:  int64(binary.BigEndian.Uint64(buf[40:])),
		height:  buf[48],
	}
}

// OpenPersistent opens (or recovers) a persistent forest over the
// store: existing nodes are scanned and the root stack replayed. A node
// that is not exactly what Append would have written at its position
// — keys out of order, pointers or heights off the merge rule — is an
// error.
func OpenPersistent(store NodeStore) (*PersistentForest, error) {
	f := &PersistentForest{store: store}
	n, err := store.Count()
	if err != nil {
		return nil, err
	}
	err = f.scan(0, n, func(pos int64, nd *pnode) error {
		if pos > 0 && nd.key <= f.maxKey {
			return fmt.Errorf("appendforest: node %d key %d not increasing", pos, nd.key)
		}
		if want := f.link(nd.key, nd.payload); *nd != want {
			return fmt.Errorf("appendforest: node %d does not follow the append rule", pos)
		}
		f.push(pos, nd)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// link returns the node Append writes for key: a leaf linked to the
// tree on its left, or — when the two rightmost trees share a height —
// the root of a tree one taller with them as its sons.
func (f *PersistentForest) link(key uint64, payload int64) pnode {
	nd := pnode{key: key, min: key, payload: payload, left: nilPersist, right: nilPersist, forest: nilPersist}
	nr := len(f.roots)
	switch {
	case nr >= 2 && f.roots[nr-2].height == f.roots[nr-1].height:
		l, r := f.roots[nr-2], f.roots[nr-1]
		nd.left, nd.right, nd.min, nd.height = l.pos, r.pos, l.min, r.height+1
		if nr >= 3 {
			nd.forest = f.roots[nr-3].pos
		}
	case nr >= 1:
		nd.forest = f.roots[nr-1].pos
	}
	return nd
}

// push records the node just written at pos.
func (f *PersistentForest) push(pos int64, nd *pnode) {
	if nd.height > 0 {
		f.roots = f.roots[:len(f.roots)-2]
	}
	f.roots = append(f.roots, root{pos: pos, height: nd.height, min: nd.min})
	f.count = pos + 1
	f.maxKey = nd.key
}

// Len returns the number of appended keys.
func (f *PersistentForest) Len() int64 { return f.count }

// MaxKey returns the largest appended key (zero when the forest is
// empty — check Len first if zero is a valid key).
func (f *PersistentForest) MaxKey() uint64 { return f.maxKey }

// Scan calls fn for the (key, payload) pairs at positions [from, to)
// in append order, reading the node log sequentially — each append
// wrote exactly one node, so the node sequence is the key sequence —
// many nodes per store read.
func (f *PersistentForest) Scan(from, to int64, fn func(key uint64, payload int64) error) error {
	return f.scan(from, min(to, f.count), func(_ int64, nd *pnode) error {
		return fn(nd.key, nd.payload)
	})
}

func (f *PersistentForest) scan(from, to int64, fn func(pos int64, nd *pnode) error) error {
	if from < 0 || from >= to {
		return nil
	}
	buf := make([]byte, min(to-from, scanChunk)*NodeSize)
	for pos := from; pos < to; {
		k := min(to-pos, scanChunk)
		chunk := buf[:k*NodeSize]
		if err := f.store.ReadNode(pos, chunk); err != nil {
			return err
		}
		for i := int64(0); i < k; i++ {
			nd := decodePNode(chunk[i*NodeSize:])
			if err := fn(pos+i, &nd); err != nil {
				return err
			}
		}
		pos += k
	}
	return nil
}

// Search returns the first position whose node satisfies pred, or Len
// when none does, reading O(log n) nodes. pred must be monotone in
// append order (false, then true): any predicate on the key is, and so
// is one on a payload the caller appends in increasing order.
func (f *PersistentForest) Search(pred func(key uint64, payload int64) bool) (int64, error) {
	return f.search(0, f.count, pred)
}

// search is Search with the answer known to lie in [lo, hi].
func (f *PersistentForest) search(lo, hi int64, pred func(key uint64, payload int64) bool) (int64, error) {
	for lo < hi {
		mid := lo + (hi-lo)/2
		nd, err := f.read(mid)
		if err != nil {
			return 0, err
		}
		if pred(nd.key, nd.payload) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// SeekGE returns the position of the first key >= key, or Len when
// every key is smaller, reading at most ⌈log₂ n⌉+1 nodes. Keys are
// strictly increasing integers, so the key at position p lies in
// [min+p, max-(Len-1-p)]: that brackets the answer before any read,
// and when the keys from the answer on run dense — consecutive LSNs,
// the common case — the lower bracket is the answer, which one read
// confirms.
func (f *PersistentForest) SeekGE(key uint64) (int64, error) {
	if f.count == 0 || key > f.maxKey {
		return f.count, nil
	}
	first := f.roots[0].min
	if key <= first {
		return 0, nil
	}
	lo, hi := int64(0), min(f.count-1, int64(min(key-first, uint64(f.count))))
	if d := f.maxKey - key; d < uint64(f.count) {
		lo = f.count - 1 - int64(d)
	}
	if lo < hi {
		nd, err := f.read(lo)
		if err != nil {
			return 0, err
		}
		if nd.key >= key {
			return lo, nil
		}
		lo++
	}
	return f.search(lo, hi, func(k uint64, _ int64) bool { return k >= key })
}

// Append adds key with a payload, writing exactly one node and reading
// none.
func (f *PersistentForest) Append(key uint64, payload int64) error {
	if f.count > 0 && key <= f.maxKey {
		return fmt.Errorf("%w: %d after %d", ErrKeyOrder, key, f.maxKey)
	}
	nd := f.link(key, payload)
	var buf [NodeSize]byte
	nd.encode(buf[:])
	pos, err := f.store.AppendNode(buf[:])
	if err != nil {
		return err
	}
	f.push(pos, &nd)
	return nil
}

func (f *PersistentForest) read(pos int64) (pnode, error) {
	var buf [NodeSize]byte
	if err := f.store.ReadNode(pos, buf[:]); err != nil {
		return pnode{}, err
	}
	return decodePNode(buf[:]), nil
}

// Lookup returns the payload for key, reading O(log n) nodes — or one,
// when key is the neighbour of the key looked up last (a scan).
func (f *PersistentForest) Lookup(key uint64) (int64, bool, error) {
	if f.count == 0 || key > f.maxKey {
		return 0, false, nil
	}
	if f.hasLast && key != f.lastKey {
		near := f.lastPos + 1
		if key < f.lastKey {
			near = f.lastPos - 1
		}
		if near >= 0 && near < f.count {
			nd, err := f.read(near)
			if err != nil {
				return 0, false, err
			}
			if nd.key == key {
				f.lastPos, f.lastKey = near, key
				return nd.payload, true, nil
			}
		}
	}
	pos := f.roots[len(f.roots)-1].pos
	cur, err := f.read(pos)
	if err != nil {
		return 0, false, err
	}
	// Walk forest pointers to the leftmost tree whose max >= key.
	for cur.forest != nilPersist {
		prev, err := f.read(cur.forest)
		if err != nil {
			return 0, false, err
		}
		if prev.key < key {
			break
		}
		pos, cur = cur.forest, prev
	}
	// Binary-tree descent.
	for {
		switch {
		case key == cur.key:
			f.lastPos, f.lastKey, f.hasLast = pos, key, true
			return cur.payload, true, nil
		case key > cur.key || key < cur.min:
			return 0, false, nil
		default:
			left, err := f.read(cur.left)
			if err != nil {
				return 0, false, err
			}
			if key <= left.key {
				pos, cur = cur.left, left
			} else {
				pos = cur.right
				cur, err = f.read(pos)
				if err != nil {
					return 0, false, err
				}
			}
		}
	}
}

// MemNodeStore keeps nodes in memory (tests, and volatile caching of a
// WORM volume).
type MemNodeStore struct {
	nodes [][]byte
}

// AppendNode implements NodeStore.
func (m *MemNodeStore) AppendNode(buf []byte) (int64, error) {
	cp := make([]byte, len(buf))
	copy(cp, buf)
	m.nodes = append(m.nodes, cp)
	return int64(len(m.nodes) - 1), nil
}

// ReadNode implements NodeStore.
func (m *MemNodeStore) ReadNode(pos int64, buf []byte) error {
	if err := checkRead(pos, buf, int64(len(m.nodes))); err != nil {
		return err
	}
	for i := 0; i < len(buf); i += NodeSize {
		copy(buf[i:i+NodeSize], m.nodes[pos])
		pos++
	}
	return nil
}

// Count implements NodeStore.
func (m *MemNodeStore) Count() (int64, error) { return int64(len(m.nodes)), nil }

// checkRead validates a ReadNode request against a store of count
// nodes.
func checkRead(pos int64, buf []byte, count int64) error {
	if len(buf) == 0 || len(buf)%NodeSize != 0 {
		return fmt.Errorf("appendforest: read buffer of %d bytes is not whole nodes", len(buf))
	}
	if pos < 0 || pos > count-int64(len(buf)/NodeSize) {
		return fmt.Errorf("appendforest: node %d out of range", pos)
	}
	return nil
}

// writeBehindBytes bounds how many appended node bytes a FileNodeStore
// holds before writing them itself.
const writeBehindBytes = 1 << 20

// FileNodeStore stores nodes in a file, append-only — a write-once
// volume in the limit (nothing is ever overwritten). Appends are
// write-behind: nodes are held in memory and written in one pwrite by
// Flush, Sync or Close, or once writeBehindBytes of them are held;
// reads of held nodes are served from memory. Only Sync makes nodes
// durable. Not safe for concurrent use.
type FileNodeStore struct {
	f       *os.File
	written int64  // nodes on the file
	held    []byte // appended nodes not yet written, in position order
	dirty   bool   // bytes written since the last fsync
}

// OpenFileNodeStore opens (creating if needed) a node file.
func OpenFileNodeStore(path string) (*FileNodeStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if info.Size()%NodeSize != 0 {
		// A torn node append (crash mid-write): discard the partial
		// tail — its node was never linked from anywhere.
		if err := f.Truncate(info.Size() - info.Size()%NodeSize); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &FileNodeStore{f: f, written: info.Size() / NodeSize}, nil
}

func (s *FileNodeStore) count() int64 { return s.written + int64(len(s.held)/NodeSize) }

// AppendNode implements NodeStore.
func (s *FileNodeStore) AppendNode(buf []byte) (int64, error) {
	if len(buf) != NodeSize {
		return 0, errors.New("appendforest: bad node size")
	}
	if len(s.held)+NodeSize > writeBehindBytes {
		if err := s.Flush(); err != nil {
			return 0, err
		}
	}
	pos := s.count()
	s.held = append(s.held, buf...)
	return pos, nil
}

// ReadNode implements NodeStore.
func (s *FileNodeStore) ReadNode(pos int64, buf []byte) error {
	if err := checkRead(pos, buf, s.count()); err != nil {
		return err
	}
	if pos < s.written {
		n := min(int64(len(buf)), (s.written-pos)*NodeSize)
		if _, err := s.f.ReadAt(buf[:n], pos*NodeSize); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		buf = buf[n:]
		pos += n / NodeSize
	}
	if len(buf) > 0 {
		copy(buf, s.held[(pos-s.written)*NodeSize:])
	}
	return nil
}

// Count implements NodeStore.
func (s *FileNodeStore) Count() (int64, error) { return s.count(), nil }

// Flush writes the held nodes to the file in one pwrite, without
// fsync.
func (s *FileNodeStore) Flush() error {
	if len(s.held) == 0 {
		return nil
	}
	if _, err := s.f.WriteAt(s.held, s.written*NodeSize); err != nil {
		return err
	}
	s.written += int64(len(s.held) / NodeSize)
	s.held = s.held[:0]
	s.dirty = true
	return nil
}

// Sync writes the held nodes and fsyncs the file, if anything was
// written since the last Sync.
func (s *FileNodeStore) Sync() error {
	if err := s.Flush(); err != nil {
		return err
	}
	if !s.dirty {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.dirty = false
	return nil
}

// Truncate cuts the store back to its first n nodes.
func (s *FileNodeStore) Truncate(n int64) error {
	if n < 0 || n > s.count() {
		return fmt.Errorf("appendforest: truncate to %d of %d nodes", n, s.count())
	}
	if err := s.Flush(); err != nil {
		return err
	}
	if err := s.f.Truncate(n * NodeSize); err != nil {
		return err
	}
	s.written, s.dirty = n, true
	return nil
}

// Close writes the held nodes and closes the node file.
func (s *FileNodeStore) Close() error {
	return errors.Join(s.Flush(), s.f.Close())
}
