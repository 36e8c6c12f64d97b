package datanode

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// rmwNode is a primary for one partition running the default simulated
// costs (IOReadTime 50µs, IOWriteTime 20µs) and the default WFQ, whose
// I/O layer runs several threads: concurrent requests for one key do
// overlap in their I/O stages.
func rmwNode(t *testing.T) *Node {
	t.Helper()
	n := newTestNode(t, Config{Cost: DefaultCostModel()})
	if err := n.AddReplica(rid("t1", 0, 0), 1e9, true); err != nil {
		t.Fatal(err)
	}
	return n
}

// race runs fn(g) on g = 0..goroutines-1 concurrently and waits.
func race(goroutines int, fn func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(g)
		}()
	}
	wg.Wait()
}

// TestConcurrentHSetKeepsEveryField: HSET is one atomic
// read-modify-write, so 8 clients each setting 50 distinct fields of
// one hash lose none of them.
func TestConcurrentHSetKeepsEveryField(t *testing.T) {
	n := rmwNode(t)
	p, key := pid("t1", 0), []byte("h")
	race(8, func(g int) {
		for i := 0; i < 50; i++ {
			if _, err := n.HSet(bg, p, key, fmt.Sprintf("f%d-%d", g, i), []byte("v")); err != nil {
				t.Error(err)
			}
		}
	})
	if l, err := n.HLen(bg, p, key); err != nil || l != 400 {
		t.Fatalf("HLEN = %d, %v; want 400", l, err)
	}
}

// TestSetNXHasOneWinner: in every round, exactly one of 8 concurrent
// SET NX calls on a fresh key writes.
func TestSetNXHasOneWinner(t *testing.T) {
	n := rmwNode(t)
	p := pid("t1", 0)
	for round := 0; round < 100; round++ {
		key := []byte(fmt.Sprintf("nx-%d", round))
		var mu sync.Mutex
		winners := 0
		race(8, func(g int) {
			res, err := n.PutWith(bg, p, 0, key, []byte{byte(g)}, PutOptions{Cond: CondNX})
			if err != nil {
				t.Error(err)
			}
			if res.Written {
				mu.Lock()
				winners++
				mu.Unlock()
			}
		})
		if winners != 1 {
			t.Fatalf("round %d: %d SET NX winners, want 1", round, winners)
		}
	}
}

// TestConcurrentHDelAndHSetLoseNothing: deletes of existing fields and
// sets of new ones on the same hash interleave without undoing each
// other.
func TestConcurrentHDelAndHSetLoseNothing(t *testing.T) {
	n := rmwNode(t)
	p, key := pid("t1", 0), []byte("h")
	for i := 0; i < 100; i++ {
		if _, err := n.HSet(bg, p, key, fmt.Sprintf("old%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	removed := 0
	race(8, func(g int) {
		for i := g % 4; i < 100; i += 4 {
			if g < 4 {
				if _, err := n.HSet(bg, p, key, fmt.Sprintf("new%d", i), []byte("v")); err != nil {
					t.Error(err)
				}
				continue
			}
			r, err := n.HDel(bg, p, key, fmt.Sprintf("old%d", i))
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			removed += r
			mu.Unlock()
		}
	})
	all, err := n.HGetAll(bg, p, key)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, ok := all[fmt.Sprintf("new%d", i)]; !ok {
			t.Errorf("HSET of new%d lost", i)
		}
		if _, ok := all[fmt.Sprintf("old%d", i)]; ok {
			t.Errorf("HDEL of old%d undone", i)
		}
	}
	if removed != 100 {
		t.Errorf("HDEL removed %d fields, want 100", removed)
	}
}

// TestConcurrentExpireAndSetLoseNothing: EXPIRE rewrites the value it
// read, so a SET landing in between would be undone by a non-atomic
// EXPIRE. Every SET must stay visible until the next one.
func TestConcurrentExpireAndSetLoseNothing(t *testing.T) {
	n := rmwNode(t)
	p, key := pid("t1", 0), []byte("k")
	if _, err := n.Put(bg, p, key, []byte("v-1"), 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	race(8, func(g int) {
		if g > 0 {
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := n.Expire(bg, p, key, time.Hour); err != nil {
					t.Error(err)
				}
			}
		}
		defer close(done)
		for i := 0; i < 100; i++ {
			want := fmt.Sprintf("v%d", i)
			if _, err := n.Put(bg, p, key, []byte(want), 0); err != nil {
				t.Error(err)
			}
			if res, err := n.Get(bg, p, key); err != nil || string(res.Value) != want {
				t.Errorf("GET after SET %s = %q, %v", want, res.Value, err)
				return
			}
		}
	})
	if res, err := n.Get(bg, p, key); err != nil || string(res.Value) != "v99" {
		t.Fatalf("after the race GET = %q, %v; want the last SET, v99", res.Value, err)
	}
}

// TestWriteThroughInCommitOrder forces two writes to one key to reach
// the SA-LRU in the opposite order of their engine commits: the first
// write pauses between its commit and its write-through while the
// second runs. The cache must end up holding what the engine holds.
func TestWriteThroughInCommitOrder(t *testing.T) {
	n := newTestNode(t, Config{})
	if err := n.AddReplica(rid("t1", 0, 0), 1e9, true); err != nil {
		t.Fatal(err)
	}
	p, k := pid("t1", 0), []byte("k")
	second := make(chan struct{})
	n.afterCommit = func() {
		n.afterCommit = nil
		go func() {
			defer close(second)
			if _, err := n.Put(bg, p, k, []byte("B"), 0); err != nil {
				t.Error(err)
			}
		}()
		// The second write finishes here unless the first one's key
		// stripe holds it back until after this write-through.
		select {
		case <-second:
		case <-time.After(100 * time.Millisecond):
		}
	}
	if _, err := n.Put(bg, p, k, []byte("A"), 0); err != nil {
		t.Fatal(err)
	}
	<-second
	if v, ok := n.cache.Get(cacheKey(p, k)); !ok || string(v) != "B" {
		t.Fatalf("SA-LRU holds %q (present %v) after commits A then B; want B", v, ok)
	}
	if res, err := n.Get(bg, p, k); err != nil || string(res.Value) != "B" {
		t.Fatalf("GET = %q, %v; want B", res.Value, err)
	}
}

// TestApplyInvalidatesAfterCommit: replication applies, replica-copy
// applies and system write-throughs drop the key's SA-LRU entry after
// the engine commit. The hook stands for a read that read the engine
// before the commit and installs its fill only now, holding a ticket
// taken after any invalidation that preceded the commit: the
// post-commit invalidation must still remove the old value.
func TestApplyInvalidatesAfterCommit(t *testing.T) {
	for _, tc := range []struct {
		name  string
		apply func(n *Node, k []byte) error
	}{
		{"ApplyReplicated", func(n *Node, k []byte) error {
			return n.ApplyReplicated(pid("t1", 0), 100, []WriteOp{{Key: k, Value: []byte("new")}})
		}},
		{"ApplyCopied", func(n *Node, k []byte) error {
			return n.ApplyCopied(pid("t1", 0), 100, k, []byte("new"), 0)
		}},
		{"WriteThrough", func(n *Node, k []byte) error {
			return n.WriteThrough(pid("t1", 0), k, []byte("new"), 0, false)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNode(t, Config{})
			if err := n.AddReplica(rid("t1", 0, 0), 1e9, true); err != nil {
				t.Fatal(err)
			}
			p, k := pid("t1", 0), []byte("k")
			if _, err := n.Put(bg, p, k, []byte("old"), 0); err != nil {
				t.Fatal(err)
			}
			ck := cacheKey(p, k)
			n.cache.Delete(ck)
			n.afterCommit = func() {
				n.afterCommit = nil
				n.cache.Fill(ck, []byte("old"), n.cache.FillTicket(ck))
			}
			if err := tc.apply(n, k); err != nil {
				t.Fatal(err)
			}
			if res, err := n.Get(bg, p, k); err != nil || string(res.Value) != "new" {
				t.Fatalf("GET after the apply = %q, %v; want new", res.Value, err)
			}
		})
	}
}

// TestTTLIsCharged: TTL runs through the pipeline at the metadata
// lookup cost, so the partition quota can throttle it and a served TTL
// shows in the tenant's RU.
func TestTTLIsCharged(t *testing.T) {
	n := newTestNode(t, Config{EnablePartitionQuota: true})
	n.AddReplica(rid("t1", 0, 0), 1e6, true)
	n.AddReplica(rid("t2", 0, 0), 0.01, true) // burst below one metadata lookup
	p := pid("t1", 0)
	if _, err := n.Put(bg, p, []byte("k"), []byte("v"), time.Hour); err != nil {
		t.Fatal(err)
	}
	before := n.TenantStats("t1").RUUsed
	ttl, found, err := n.TTL(bg, p, []byte("k"))
	if err != nil || !found || ttl <= 0 || ttl > time.Hour {
		t.Fatalf("TTL = %v, %v, %v", ttl, found, err)
	}
	_, est := n.tenantState("t1")
	if got, want := n.TenantStats("t1").RUUsed-before, est.EstimateHLenRU(); got != want {
		t.Fatalf("TTL billed %v RU, want the metadata lookup's %v", got, want)
	}
	if _, _, err := n.TTL(bg, pid("t2", 0), []byte("k")); !errors.Is(err, ErrThrottled) {
		t.Fatalf("TTL on an exhausted partition: %v, want ErrThrottled", err)
	}
	if n.TenantStats("t2").Throttled != 1 {
		t.Fatalf("throttled TTL not counted: %+v", n.TenantStats("t2"))
	}
}
