package skiplist

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
)

const maxHeight = 16

// node is a skiplist node. next pointers are atomic so readers never lock.
type node struct {
	key   []byte
	value atomic.Pointer[[]byte] // updated in place on overwrite
	// first is the value the node was inserted with; value points at it
	// until the first overwrite, so an insert needs no separate box.
	first []byte
	// next is the node's tower, one pointer per level it is linked at.
	next []atomic.Pointer[node]
}

// List is a concurrent skiplist. The zero value is not usable; call New.
type List struct {
	head   *node
	mu     sync.Mutex // serializes writers
	rng    *rand.Rand
	length atomic.Int64
	bytes  atomic.Int64 // approximate memory footprint of keys+values
}

// New returns an empty list. seed makes tower heights deterministic for
// tests; production callers can pass any value.
func New(seed int64) *List {
	return &List{
		head: &node{next: make([]atomic.Pointer[node], maxHeight)},
		rng:  rand.New(rand.NewSource(seed)),
	}
}

func (l *List) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= key, and fills
// prev with the rightmost node before key at every level.
//
// It returns the level-0 successor it compared against key, not a fresh
// load of x's successor: a node inserted behind x since that comparison
// may sort before key, and a lock-free reader would then land short of
// key (a Get would miss a present key).
func (l *List) findGreaterOrEqual(key []byte, prev *[maxHeight]*node) *node {
	x := l.head
	var next *node
	for lvl := maxHeight - 1; lvl >= 0; lvl-- {
		for {
			next = x.next[lvl].Load()
			if next != nil && bytes.Compare(next.key, key) < 0 {
				x = next
				continue
			}
			break
		}
		if prev != nil {
			prev[lvl] = x
		}
	}
	return next
}

// Put inserts or overwrites key with value. The value slice is stored
// as-is; callers must not mutate it afterwards.
func (l *List) Put(key, value []byte) { l.put(key, value, 0) }

// put is Put with the new node's tower height; 0 draws it at random.
func (l *List) put(key, value []byte, h int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var prev [maxHeight]*node
	n := l.findGreaterOrEqual(key, &prev)
	if n != nil && bytes.Equal(n.key, key) {
		old := *n.value.Load()
		l.bytes.Add(int64(len(value)) - int64(len(old)))
		v := value // a copy declared here, so only overwrites allocate a box
		n.value.Store(&v)
		return
	}
	if h == 0 {
		h = l.randomHeight()
	}
	nn := &node{key: key, first: value, next: make([]atomic.Pointer[node], h)}
	nn.value.Store(&nn.first)
	for lvl := 0; lvl < h; lvl++ {
		nn.next[lvl].Store(prev[lvl].next[lvl].Load())
	}
	// Publish bottom-up so readers always see a consistent chain.
	for lvl := 0; lvl < h; lvl++ {
		prev[lvl].next[lvl].Store(nn)
	}
	l.length.Add(1)
	l.bytes.Add(int64(len(key) + len(value)))
}

// Get returns the value stored under key and whether it was found.
func (l *List) Get(key []byte) ([]byte, bool) {
	n := l.findGreaterOrEqual(key, nil)
	if n == nil || !bytes.Equal(n.key, key) {
		return nil, false
	}
	return *n.value.Load(), true
}

// Len returns the number of keys in the list.
func (l *List) Len() int { return int(l.length.Load()) }

// Bytes returns the approximate memory footprint of stored keys+values.
func (l *List) Bytes() int64 { return l.bytes.Load() }

// Iterator walks the list in ascending key order. It observes a live
// view: entries inserted behind the cursor are not revisited.
type Iterator struct {
	list *List
	cur  *node
}

// NewIterator returns an iterator positioned before the first entry.
func (l *List) NewIterator() *Iterator {
	return &Iterator{list: l, cur: l.head}
}

// Next advances to the next entry, reporting false at the end.
func (it *Iterator) Next() bool {
	it.cur = it.cur.next[0].Load()
	return it.cur != nil
}

// Seek positions the iterator at the first key >= target, reporting
// whether such a key exists. After Seek returns true, Key/Value are
// valid without calling Next.
func (it *Iterator) Seek(target []byte) bool {
	it.cur = it.list.findGreaterOrEqual(target, nil)
	return it.cur != nil
}

// Key returns the current entry's key. Valid only after a successful
// Next or Seek.
func (it *Iterator) Key() []byte { return it.cur.key }

// Value returns the current entry's value. Valid only after a
// successful Next or Seek.
func (it *Iterator) Value() []byte { return *it.cur.value.Load() }
