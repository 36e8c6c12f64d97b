package cache

import (
	"bytes"
	"testing"
	"time"

	"abase/internal/clock"
)

// filler is the read-through surface SALRU and AULRU share.
type filler interface {
	Get(key string) ([]byte, bool)
	Put(key string, value []byte)
	Delete(key string)
	FillTicket(key string) uint64
	Fill(key string, value []byte, ticket uint64) bool
}

func fillers() map[string]func() filler {
	return map[string]func() filler{
		"SALRU": func() filler { return NewSALRU(100) },
		"AULRU": func() filler { return newTestAULRU(clock.NewSim(time.Unix(0, 0)), nil) },
	}
}

func TestFillDroppedAfterWrite(t *testing.T) {
	for name, mk := range fillers() {
		t.Run(name, func(t *testing.T) {
			writes := map[string]func(c filler){
				"Put":    func(c filler) { c.Put("k", []byte("new")) },
				"Delete": func(c filler) { c.Delete("k") },
				"Fill":   func(c filler) { c.Fill("k", []byte("new"), c.FillTicket("k")) },
			}
			if _, ok := mk().(*AULRU); ok {
				writes["Update"] = func(c filler) { c.(*AULRU).Update("k", []byte("new")) }
			}
			for wname, write := range writes {
				c := mk()
				ticket := c.FillTicket("k")
				write(c) // finishes while the fill's origin read is in flight
				if c.Fill("k", []byte("old"), ticket) {
					t.Fatalf("fill installed after a %s", wname)
				}
				if v, ok := c.Get("k"); ok && string(v) == "old" {
					t.Fatalf("after a %s the cache serves the older fill", wname)
				}
			}
			// With no write in between, the fill lands.
			c := mk()
			if !c.Fill("k", []byte("v"), c.FillTicket("k")) {
				t.Fatal("fill dropped with no write in between")
			}
			if v, ok := c.Get("k"); !ok || string(v) != "v" {
				t.Fatalf("Get after fill = %q, %v", v, ok)
			}
		})
	}
}

func TestOversizedPutDropsStaleEntry(t *testing.T) {
	for name, mk := range fillers() {
		t.Run(name, func(t *testing.T) {
			c := mk()
			c.Put("k", []byte("small"))
			c.Put("k", bytes.Repeat([]byte("x"), 2<<20)) // larger than any capacity here
			if v, ok := c.Get("k"); ok {
				t.Fatalf("cache still serves %q after an uncacheable write", v)
			}
		})
	}
}

// TestAULRURefreshDroppedAfterWrite: a write that updates the entry
// while the active update's origin fetch is in flight wins over the
// value the fetch returns.
func TestAULRURefreshDroppedAfterWrite(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	var c *AULRU
	c = newTestAULRU(sim, func(key string) ([]byte, bool) {
		c.Update(key, []byte("new")) // the write lands mid-fetch
		return []byte("old"), true
	})
	c.Put("hot", []byte("v0"))
	c.Get("hot") // marks hot
	sim.Advance(55 * time.Second)
	c.Get("hot") // triggers the refresh
	if v, ok := c.Get("hot"); !ok || string(v) != "new" {
		t.Fatalf("after a racing refresh Get = %q, %v; want new", v, ok)
	}
}
