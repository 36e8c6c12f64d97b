package datanode

import (
	"testing"
)

// TestFillKeepsNewerWrite forces the interleaving in which a cache miss
// reads the engine, a write to the same key commits and writes through
// the SA-LRU, and only then does the miss install its fill. The fill
// carries the older value and must be dropped, on the point and the
// batched read path alike.
func TestFillKeepsNewerWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		get  func(n *Node, k []byte) ([]byte, error)
	}{
		{"Get", func(n *Node, k []byte) ([]byte, error) {
			res, err := n.Get(bg, pid("t1", 0), k)
			return res.Value, err
		}},
		{"MultiGet", func(n *Node, k []byte) ([]byte, error) {
			res := n.MultiGet(bg, []GetBatch{{PID: pid("t1", 0), Keys: [][]byte{k}}})[0]
			if res.Err != nil {
				return nil, res.Err
			}
			return res.Values[0].Value, res.Values[0].Err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := newTestNode(t, Config{})
			if err := n.AddReplica(rid("t1", 0, 0), 1000, true); err != nil {
				t.Fatal(err)
			}
			p := pid("t1", 0)
			k := []byte("k")
			if _, err := n.Put(bg, p, k, []byte("old"), 0); err != nil {
				t.Fatal(err)
			}
			n.cache.Delete(cacheKey(p, k)) // the next read misses and fills

			n.beforeFill = func() {
				n.beforeFill = nil
				// The read has seen "old"; a write in the other WFQ
				// class commits and writes through before the fill.
				if _, err := n.Put(bg, p, k, []byte("new"), 0); err != nil {
					t.Error(err)
				}
			}
			v, err := tc.get(n, k)
			if err != nil || string(v) != "old" {
				t.Fatalf("racing read = %q, %v; want the value it read, old", v, err)
			}
			for i := 0; i < 2; i++ {
				if v, err := tc.get(n, k); err != nil || string(v) != "new" {
					t.Fatalf("read %d after the write = %q, %v; want new", i, v, err)
				}
			}
		})
	}
}
