// Package btree implements an in-memory B+tree with ordered iteration.
//
// The hdf5 substrate uses it for chunk indexes (chunk coordinate →
// file address) and group link tables (name → object address), mirroring
// the version-1/2 B-trees real HDF5 keeps for the same purposes. Leaves
// are linked, so Ascend walks the entries in key order without touching
// the inner nodes. Entries are never removed: a container only grows.
package btree

import "fmt"

// Tree is a B+tree mapping K to V under a caller-supplied ordering.
// Construct with New. Not safe for concurrent mutation.
type Tree[K, V any] struct {
	less  func(a, b K) bool
	order int // max entries per leaf and max keys per inner node
	root  node[K, V]
	first *leaf[K, V]
	size  int
}

// New returns an empty tree. Order is the maximum number of entries per
// node; it must be at least 3 (real deployments use tens to hundreds).
func New[K, V any](order int, less func(a, b K) bool) *Tree[K, V] {
	if order < 3 {
		panic(fmt.Sprintf("btree: order %d < 3", order))
	}
	lf := &leaf[K, V]{}
	return &Tree[K, V]{less: less, order: order, root: lf, first: lf}
}

// Len returns the number of entries.
func (t *Tree[K, V]) Len() int { return t.size }

type node[K, V any] interface {
	// findLeaf descends to the leaf that does or would hold key.
	findLeaf(t *Tree[K, V], key K) *leaf[K, V]
}

type leaf[K, V any] struct {
	keys []K
	vals []V
	next *leaf[K, V]
}

type inner[K, V any] struct {
	keys []K          // n separator keys
	kids []node[K, V] // n+1 children; kids[i] holds keys < keys[i]
}

func (l *leaf[K, V]) findLeaf(*Tree[K, V], K) *leaf[K, V] { return l }

func (in *inner[K, V]) findLeaf(t *Tree[K, V], key K) *leaf[K, V] {
	return in.kids[t.childIndex(in, key)].findLeaf(t, key)
}

// childIndex returns the child slot for key: the first i with
// key < keys[i], else len(keys).
func (t *Tree[K, V]) childIndex(in *inner[K, V], key K) int {
	lo, hi := 0, len(in.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.less(key, in.keys[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// leafIndex returns the position of key in l (found=true) or its
// insertion point.
func (t *Tree[K, V]) leafIndex(l *leaf[K, V], key K) (int, bool) {
	lo, hi := 0, len(l.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.less(l.keys[mid], key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	found := lo < len(l.keys) && !t.less(key, l.keys[lo])
	return lo, found
}

// Get returns the value stored under key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	l := t.root.findLeaf(t, key)
	if i, ok := t.leafIndex(l, key); ok {
		return l.vals[i], true
	}
	var zero V
	return zero, false
}

// Put stores value under key, returning the previous value if the key
// was already present.
func (t *Tree[K, V]) Put(key K, value V) (old V, replaced bool) {
	split, sepKey, right, prev, had := t.insert(t.root, key, value)
	if split {
		t.root = &inner[K, V]{keys: []K{sepKey}, kids: []node[K, V]{t.root, right}}
	}
	if !had {
		t.size++
	}
	return prev, had
}

// insert adds key/value under n. If n overflows it splits, returning the
// separator key and new right sibling.
func (t *Tree[K, V]) insert(n node[K, V], key K, value V) (split bool, sepKey K, right node[K, V], old V, had bool) {
	switch n := n.(type) {
	case *leaf[K, V]:
		i, found := t.leafIndex(n, key)
		if found {
			old, had = n.vals[i], true
			n.vals[i] = value
			return
		}
		n.keys = insertAt(n.keys, i, key)
		n.vals = insertAt(n.vals, i, value)
		if len(n.keys) > t.order {
			mid := len(n.keys) / 2
			r := &leaf[K, V]{
				keys: append([]K(nil), n.keys[mid:]...),
				vals: append([]V(nil), n.vals[mid:]...),
				next: n.next,
			}
			n.keys = n.keys[:mid:mid]
			n.vals = n.vals[:mid:mid]
			n.next = r
			return true, r.keys[0], r, old, had
		}
		return
	case *inner[K, V]:
		ci := t.childIndex(n, key)
		childSplit, childSep, childRight, o, h := t.insert(n.kids[ci], key, value)
		old, had = o, h
		if childSplit {
			n.keys = insertAt(n.keys, ci, childSep)
			n.kids = insertAt(n.kids, ci+1, childRight)
			if len(n.keys) > t.order {
				mid := len(n.keys) / 2
				sep := n.keys[mid]
				r := &inner[K, V]{
					keys: append([]K(nil), n.keys[mid+1:]...),
					kids: append([]node[K, V](nil), n.kids[mid+1:]...),
				}
				n.keys = n.keys[:mid:mid]
				n.kids = n.kids[: mid+1 : mid+1]
				return true, sep, r, old, had
			}
		}
		return
	}
	panic("btree: unknown node type")
}

// Ascend calls fn for every entry in key order until fn returns false.
func (t *Tree[K, V]) Ascend(fn func(k K, v V) bool) {
	for l := t.first; l != nil; l = l.next {
		for i := range l.keys {
			if !fn(l.keys[i], l.vals[i]) {
				return
			}
		}
	}
}

func insertAt[T any](s []T, i int, v T) []T {
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
