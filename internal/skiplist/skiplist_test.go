package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	l := New(1)
	if _, ok := l.Get([]byte("a")); ok {
		t.Fatal("Get on empty list returned ok")
	}
	if l.Len() != 0 || l.Bytes() != 0 {
		t.Fatal("empty list has nonzero size")
	}
	it := l.NewIterator()
	if it.Next() {
		t.Fatal("iterator on empty list advanced")
	}
}

func TestPutGet(t *testing.T) {
	l := New(1)
	l.Put([]byte("b"), []byte("2"))
	l.Put([]byte("a"), []byte("1"))
	l.Put([]byte("c"), []byte("3"))
	for _, kv := range []struct{ k, v string }{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		got, ok := l.Get([]byte(kv.k))
		if !ok || string(got) != kv.v {
			t.Fatalf("Get(%q) = %q, %v", kv.k, got, ok)
		}
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestOverwrite(t *testing.T) {
	l := New(1)
	l.Put([]byte("k"), []byte("old"))
	l.Put([]byte("k"), []byte("newvalue"))
	got, ok := l.Get([]byte("k"))
	if !ok || string(got) != "newvalue" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	if l.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", l.Len())
	}
	want := int64(len("k") + len("newvalue"))
	if l.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", l.Bytes(), want)
	}
}

func TestIterationOrder(t *testing.T) {
	l := New(42)
	keys := []string{"delta", "alpha", "charlie", "bravo", "echo"}
	for _, k := range keys {
		l.Put([]byte(k), []byte(k))
	}
	it := l.NewIterator()
	var got []string
	for it.Next() {
		got = append(got, string(it.Key()))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSeek(t *testing.T) {
	l := New(1)
	for _, k := range []string{"b", "d", "f"} {
		l.Put([]byte(k), []byte(k))
	}
	it := l.NewIterator()
	if !it.Seek([]byte("c")) || string(it.Key()) != "d" {
		t.Fatalf("Seek(c) landed on %q", it.Key())
	}
	if !it.Seek([]byte("b")) || string(it.Key()) != "b" {
		t.Fatalf("Seek(b) landed on %q", it.Key())
	}
	if it.Seek([]byte("g")) {
		t.Fatal("Seek past end returned true")
	}
}

func TestSeekThenNext(t *testing.T) {
	l := New(1)
	for _, k := range []string{"a", "b", "c"} {
		l.Put([]byte(k), []byte(k))
	}
	it := l.NewIterator()
	it.Seek([]byte("b"))
	if !it.Next() || string(it.Key()) != "c" {
		t.Fatalf("Next after Seek = %q", it.Key())
	}
}

func TestConcurrentReadersOneWriter(t *testing.T) {
	l := New(7)
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			k := []byte(fmt.Sprintf("key%06d", i))
			l.Put(k, k)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < n; i++ {
				k := []byte(fmt.Sprintf("key%06d", rng.Intn(n)))
				if v, ok := l.Get(k); ok && !bytes.Equal(v, k) {
					t.Errorf("Get(%q) = %q", k, v)
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
}

// TestConcurrentReadersAllHeights inserts nodes of every tower height
// while readers Get and Seek and iterators walk the list; run it under
// -race. Lock-free readers must only ever see fully linked nodes, in
// order, through towers sized to each node's height.
func TestConcurrentReadersAllHeights(t *testing.T) {
	l := New(3)
	const n = 4 * maxHeight * 40
	order := rand.New(rand.NewSource(5)).Perm(n)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for j, i := range order {
			k := key(i)
			l.put(k, k, j%maxHeight+1)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(2)
		go func(seed int64) { // point reads and seeks
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				k := key(rng.Intn(n))
				if v, ok := l.Get(k); ok && !bytes.Equal(v, k) {
					t.Errorf("Get(%q) = %q", k, v)
					return
				}
				it := l.NewIterator()
				if it.Seek(k) && bytes.Compare(it.Key(), k) < 0 {
					t.Errorf("Seek(%q) landed on %q", k, it.Key())
					return
				}
			}
		}(int64(r))
		go func() { // full scans
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				it := l.NewIterator()
				var prev []byte
				for it.Next() {
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						t.Errorf("order violation: %q then %q", prev, it.Key())
						return
					}
					if !bytes.Equal(it.Value(), it.Key()) {
						t.Errorf("value of %q = %q", it.Key(), it.Value())
						return
					}
					prev = it.Key()
				}
			}
		}()
	}
	wg.Wait()
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	// Every level is a sorted chain of nodes tall enough to be on it,
	// and every height from 1 to maxHeight was linked.
	heights := map[int]int{}
	for x := l.head.next[0].Load(); x != nil; x = x.next[0].Load() {
		heights[len(x.next)]++
	}
	for h := 1; h <= maxHeight; h++ {
		if heights[h] != n/maxHeight {
			t.Fatalf("%d nodes of height %d, want %d", heights[h], h, n/maxHeight)
		}
	}
	for lvl := 0; lvl < maxHeight; lvl++ {
		count := 0
		var prev []byte
		for x := l.head.next[lvl].Load(); x != nil; x = x.next[lvl].Load() {
			if len(x.next) <= lvl {
				t.Fatalf("node %q of height %d linked at level %d", x.key, len(x.next), lvl)
			}
			if prev != nil && bytes.Compare(prev, x.key) >= 0 {
				t.Fatalf("level %d out of order: %q then %q", lvl, prev, x.key)
			}
			prev = x.key
			count++
		}
		if want := n / maxHeight * (maxHeight - lvl); count != want {
			t.Fatalf("level %d links %d nodes, want %d", lvl, count, want)
		}
	}
}

// TestGetNeverMissesPresentKey: a lock-free Get for a key that is
// already in the list must find it while a node is being linked right in
// front of it. The writer inserts odd keys, each just before an even key
// already present, and the readers keep reading that even key.
func TestGetNeverMissesPresentKey(t *testing.T) {
	l := New(11)
	const n = 40000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
	for i := 0; i <= n; i += 2 {
		l.Put(key(i), key(i))
	}
	var cursor atomic.Int64 // the odd key being inserted
	cursor.Store(n - 1)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := n - 1; i > 0; i -= 2 {
			cursor.Store(int64(i))
			l.Put(key(i), key(i))
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				k := key(int(cursor.Load()) + 1)
				if _, ok := l.Get(k); !ok {
					t.Errorf("Get(%q) missed a present key", k)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestConcurrentWriters(t *testing.T) {
	l := New(7)
	var wg sync.WaitGroup
	const perWriter = 500
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := []byte(fmt.Sprintf("w%d-%04d", w, i))
				l.Put(k, k)
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != 4*perWriter {
		t.Fatalf("Len = %d", l.Len())
	}
	// Verify full ordering afterwards.
	it := l.NewIterator()
	var prev []byte
	for it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("order violation: %q then %q", prev, it.Key())
		}
		prev = append(prev[:0], it.Key()...)
	}
}

func TestPropertyMatchesMap(t *testing.T) {
	// Property: after any sequence of puts, Get matches a reference map
	// and iteration yields sorted unique keys.
	f := func(ops [][2]string) bool {
		l := New(99)
		ref := map[string]string{}
		for _, op := range ops {
			k, v := op[0], op[1]
			if k == "" {
				continue
			}
			l.Put([]byte(k), []byte(v))
			ref[k] = v
		}
		if l.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := l.Get([]byte(k))
			if !ok || string(got) != v {
				return false
			}
		}
		it := l.NewIterator()
		var prev string
		first := true
		for it.Next() {
			k := string(it.Key())
			if !first && k <= prev {
				return false
			}
			prev, first = k, false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPut(b *testing.B) {
	l := New(1)
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%09d", i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Put(keys[i], keys[i])
	}
}

func BenchmarkGet(b *testing.B) {
	l := New(1)
	const n = 100000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%09d", i))
		l.Put(keys[i], keys[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Get(keys[i%n])
	}
}
