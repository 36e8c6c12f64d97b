package proxy

import (
	"testing"
)

// TestFillKeepsNewerWrite forces the interleaving in which a proxy
// cache miss gets its value from the DataNode, a write to the same key
// completes and writes through the AU-LRU, and only then does the miss
// install its fill. The fill carries the older value and must be
// dropped, on the point and the batched read path alike.
func TestFillKeepsNewerWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		get  func(p *Proxy, k []byte) ([]byte, error)
	}{
		{"GetPref", func(p *Proxy, k []byte) ([]byte, error) {
			return p.GetPref(bg, k, ReadPrimary)
		}},
		{"BatchGet", func(p *Proxy, k []byte) ([]byte, error) {
			vals, errs := p.BatchGet(bg, [][]byte{k})
			return vals[0], errs[0]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Ungated admission: every fetched value and every write
			// enters the AU-LRU.
			_, p := newStack(t, 1e9, func(c *Config) { c.HotAdmitThreshold = -1 })
			k := []byte("k")
			if err := p.Put(bg, k, []byte("old"), 0); err != nil {
				t.Fatal(err)
			}
			p.cache.Delete(string(k)) // the next read misses and fills

			p.beforeFill = func() {
				p.beforeFill = nil
				if err := p.Put(bg, k, []byte("new"), 0); err != nil {
					t.Error(err)
				}
			}
			v, err := tc.get(p, k)
			if err != nil || string(v) != "old" {
				t.Fatalf("racing read = %q, %v; want the value it read, old", v, err)
			}
			for i := 0; i < 2; i++ {
				if v, err := tc.get(p, k); err != nil || string(v) != "new" {
					t.Fatalf("read %d after the write = %q, %v; want new", i, v, err)
				}
			}
		})
	}
}
