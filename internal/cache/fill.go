package cache

import "sync/atomic"

// genStripes is the number of write-generation counters a cache keeps.
// Keys hash onto them, so a write delays fills only of keys that share
// its stripe.
const genStripes = 1024

// writeGens orders read-through fills against writes. A fill reads its
// value from the origin outside the cache lock, so a write can commit
// and update the cache in between; installing the fill afterwards would
// bring the older value back. Every cache mutation (write-through,
// invalidation, fill) bumps the generation of the key's stripe under
// the cache lock. A fill carries the generation its caller saw before
// reading the origin and is dropped if the stripe has moved since.
type writeGens [genStripes]atomic.Uint64

// of returns key's stripe counter (FNV-1a over the key).
func (g *writeGens) of(key string) *atomic.Uint64 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &g[h%genStripes]
}
