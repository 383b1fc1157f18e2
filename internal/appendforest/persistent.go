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
// pointers refer to previously written positions. Searches read
// O(log n) nodes from the store.
//
// On reopen the structure is recovered by scanning the node log and
// replaying the forest's merge rule, which is fully determined by the
// node heights.
type PersistentForest struct {
	store  NodeStore
	count  int64
	roots  []int64 // positions of tree roots, leftmost first
	maxKey uint64

	// Where the last successful Lookup landed. The node log is the key
	// sequence, so a scan's next key is one position away: Lookup tries
	// the neighbour — one node read — before the O(log n) descent.
	lastPos int64
	lastKey uint64
	hasLast bool
}

// NodeStore is the append-only storage for encoded nodes. Nodes are
// exactly NodeSize bytes.
type NodeStore interface {
	// AppendNode writes one encoded node and returns its position
	// (ordinal index).
	AppendNode(buf []byte) (pos int64, err error)
	// ReadNode fills buf with the node at pos.
	ReadNode(pos int64, buf []byte) error
	// Count returns the number of stored nodes.
	Count() (int64, error)
}

// NodeSize is the fixed encoded node size:
// key(8) min(8) payload(8) left(8) right(8) forest(8) height(1).
const NodeSize = 8*6 + 1

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
// store: existing nodes are scanned and the root stack replayed.
func OpenPersistent(store NodeStore) (*PersistentForest, error) {
	f := &PersistentForest{store: store}
	n, err := store.Count()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, NodeSize)
	for pos := int64(0); pos < n; pos++ {
		if err := store.ReadNode(pos, buf); err != nil {
			return nil, err
		}
		nd := decodePNode(buf)
		if nd.key <= f.maxKey && pos > 0 {
			return nil, fmt.Errorf("appendforest: node %d key %d not increasing", pos, nd.key)
		}
		// Replay the merge rule: a node of height h > 0 absorbed the
		// two rightmost roots as its sons.
		if nd.height > 0 {
			if len(f.roots) < 2 {
				return nil, fmt.Errorf("appendforest: node %d height %d with %d roots", pos, nd.height, len(f.roots))
			}
			f.roots = f.roots[:len(f.roots)-2]
		}
		f.roots = append(f.roots, pos)
		f.maxKey = nd.key
	}
	f.count = n
	return f, nil
}

// Len returns the number of appended keys.
func (f *PersistentForest) Len() int64 { return f.count }

// MaxKey returns the largest appended key (zero when the forest is
// empty — check Len first if zero is a valid key).
func (f *PersistentForest) MaxKey() uint64 { return f.maxKey }

// Scan calls fn for every appended (key, payload) pair in append
// order, reading the node log sequentially: each append wrote exactly
// one node, so the node sequence is the key sequence.
func (f *PersistentForest) Scan(fn func(key uint64, payload int64) error) error {
	buf := make([]byte, NodeSize)
	for pos := int64(0); pos < f.count; pos++ {
		if err := f.store.ReadNode(pos, buf); err != nil {
			return err
		}
		nd := decodePNode(buf)
		if err := fn(nd.key, nd.payload); err != nil {
			return err
		}
	}
	return nil
}

// Append adds key with a payload, writing exactly one node.
func (f *PersistentForest) Append(key uint64, payload int64) error {
	if f.count > 0 && key <= f.maxKey {
		return fmt.Errorf("%w: %d after %d", ErrKeyOrder, key, f.maxKey)
	}
	nd := pnode{key: key, min: key, payload: payload, left: nilPersist, right: nilPersist, forest: nilPersist}
	var buf [NodeSize]byte
	nr := len(f.roots)
	if nr >= 2 {
		left, err := f.read(f.roots[nr-2])
		if err != nil {
			return err
		}
		right, err := f.read(f.roots[nr-1])
		if err != nil {
			return err
		}
		if left.height == right.height {
			nd.left = f.roots[nr-2]
			nd.right = f.roots[nr-1]
			nd.min = left.min
			nd.height = right.height + 1
			if nr >= 3 {
				nd.forest = f.roots[nr-3]
			}
			f.roots = f.roots[:nr-2]
		} else {
			nd.forest = f.roots[nr-1]
		}
	} else if nr == 1 {
		nd.forest = f.roots[0]
	}
	nd.encode(buf[:])
	pos, err := f.store.AppendNode(buf[:])
	if err != nil {
		return err
	}
	f.roots = append(f.roots, pos)
	f.count++
	f.maxKey = key
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
	pos := f.roots[len(f.roots)-1]
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
	if pos < 0 || pos >= int64(len(m.nodes)) {
		return fmt.Errorf("appendforest: node %d out of range", pos)
	}
	copy(buf, m.nodes[pos])
	return nil
}

// Count implements NodeStore.
func (m *MemNodeStore) Count() (int64, error) { return int64(len(m.nodes)), nil }

// FileNodeStore stores nodes in a file, append-only — a write-once
// volume in the limit (nothing is ever overwritten).
type FileNodeStore struct {
	f    *os.File
	next int64
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
	return &FileNodeStore{f: f, next: info.Size() / NodeSize}, nil
}

// AppendNode implements NodeStore.
func (s *FileNodeStore) AppendNode(buf []byte) (int64, error) {
	if len(buf) != NodeSize {
		return 0, errors.New("appendforest: bad node size")
	}
	pos := s.next
	if _, err := s.f.WriteAt(buf, pos*NodeSize); err != nil {
		return 0, err
	}
	s.next++
	return pos, nil
}

// ReadNode implements NodeStore.
func (s *FileNodeStore) ReadNode(pos int64, buf []byte) error {
	if pos < 0 || pos >= s.next {
		return fmt.Errorf("appendforest: node %d out of range", pos)
	}
	_, err := s.f.ReadAt(buf[:NodeSize], pos*NodeSize)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// Count implements NodeStore.
func (s *FileNodeStore) Count() (int64, error) { return s.next, nil }

// Sync flushes the node file.
func (s *FileNodeStore) Sync() error { return s.f.Sync() }

// Close closes the node file.
func (s *FileNodeStore) Close() error { return s.f.Close() }
