package proxy

// This file implements batched multi-key operations through the proxy
// plane. A batch makes one pass over the routing table, admits each
// proxy's share through the quota limiter once at the summed RU cost,
// serves AU-LRU hits before any fan-out, and fans out to each owning
// DataNode in parallel with bounded concurrency — one node round trip
// (a single request-queue admission) carrying that node's per-partition
// sub-batches. Results merge back into input order with per-key error
// slots, so one throttled or missing key never aborts the rest of the
// batch.

import (
	"context"
	"errors"
	"sync"
	"time"

	"abase/internal/datanode"
	"abase/internal/metaserver"
	"abase/internal/partition"
	"abase/internal/ru"
)

// KV is one key/value pair in a batched put.
type KV struct {
	Key   []byte
	Value []byte
	TTL   time.Duration
}

// DefaultBatchFanout bounds how many DataNodes one proxy dispatches to
// concurrently during a batched operation.
const DefaultBatchFanout = 4

// nodeBatch is the slice of a batch owned by one DataNode, split into
// its per-partition sub-batches.
type nodeBatch struct {
	node   *datanode.Node
	gets   []datanode.GetBatch // per-partition key groups
	idxs   [][]int             // original batch positions, parallel to gets
	epochs []uint64            // route epoch per sub-batch, parallel to gets
}

// groupByNode splits the selected batch positions by owning DataNode
// and partition using a single pass over the cached routing table.
// Routing failures are recorded in errs and excluded from the result.
func (p *Proxy) groupByNode(keys [][]byte, idxs []int, errs []error) []*nodeBatch {
	view, err := p.routingView()
	if err != nil || len(view.Partitions) == 0 {
		if err == nil {
			err = metaserver.ErrUnknownPartition
		}
		for _, i := range idxs {
			errs[i] = err
			p.errors.Inc()
		}
		return nil
	}
	byNode := make(map[string]*nodeBatch)
	slot := make(map[partition.ID]int) // partition → index into nb.gets
	var order []*nodeBatch
	for _, i := range idxs {
		route := view.Partitions[partition.PartitionOf(keys[i], len(view.Partitions))]
		nb, ok := byNode[route.Primary]
		if !ok {
			node, err := p.cfg.Meta.Node(route.Primary)
			if err != nil {
				errs[i] = err
				p.errors.Inc()
				continue
			}
			nb = &nodeBatch{node: node}
			byNode[route.Primary] = nb
			order = append(order, nb)
		}
		g, ok := slot[route.Partition]
		if !ok {
			g = len(nb.gets)
			slot[route.Partition] = g
			nb.gets = append(nb.gets, datanode.GetBatch{PID: route.Partition})
			nb.idxs = append(nb.idxs, nil)
			nb.epochs = append(nb.epochs, route.Epoch)
		}
		nb.gets[g].Keys = append(nb.gets[g].Keys, keys[i])
		nb.idxs[g] = append(nb.idxs[g], i)
	}
	return order
}

// noteBatchNodeErr reports a down node seen by a batch dispatch (once
// per node batch) and invalidates the route cache so the retry pass
// resolves fresh routes.
func (p *Proxy) noteBatchNodeErr(nb *nodeBatch, err error, reported *bool) {
	if *reported || !retryableRouteErr(err) {
		return
	}
	*reported = true
	p.noteRouteFailure(nb.node.ID(), err)
}

// retryPass collects the batch positions whose error is
// routing-shaped, clearing their slots for one more dispatch. The
// caller loops at most twice, giving every keyed path the same single
// bounded retry as withRoute.
func retryPass(idxs []int, errs []error) []int {
	var retry []int
	for _, i := range idxs {
		if retryableRouteErr(errs[i]) {
			errs[i] = nil
			retry = append(retry, i)
		}
	}
	return retry
}

// fanout bounds the node-level dispatch concurrency. Tiny batches run
// serially: a goroutine handoff costs more than the round trips it
// would overlap.
func (p *Proxy) fanout(totalKeys int) int {
	if totalKeys <= 8 {
		return 1
	}
	if p.cfg.BatchFanout > 0 {
		return p.cfg.BatchFanout
	}
	return DefaultBatchFanout
}

// runBounded invokes fn(i) for i in [0,n) with at most limit running
// concurrently.
func runBounded(n, limit int, fn func(i int)) {
	if limit < 1 {
		limit = 1
	}
	if n <= 1 || limit == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// mapNodeErr translates data-plane sentinels into the proxy's.
func mapNodeErr(err error) error {
	switch {
	case errors.Is(err, datanode.ErrNotFound):
		return ErrNotFound
	case errors.Is(err, datanode.ErrThrottled):
		return ErrThrottled
	default:
		return err
	}
}

// BatchGet reads keys through this proxy. The returned slices are
// parallel to keys: errs[i] is nil on success, ErrNotFound for an
// absent key, ErrThrottled when quota rejected the sub-batch holding
// that key, or a transport error. AU-LRU hits are served first without
// consuming quota; the remaining misses are admitted once at the
// summed RU estimate and fanned out per node.
func (p *Proxy) BatchGet(ctx context.Context, keys [][]byte) (values [][]byte, errs []error) {
	start := p.cfg.Clock.Now()
	values = make([][]byte, len(keys))
	errs = make([]error, len(keys))
	// A pre-canceled batch never consumes cache slots, quota, or RU.
	if err := ctx.Err(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return values, errs
	}
	miss := make([]int, 0, len(keys))
	ests := make([]float64, len(keys))
	if p.cache != nil {
		for i, k := range keys {
			ests[i] = p.touchHot(k)
			if v, ok := p.cache.Get(string(k)); ok {
				values[i] = v
				p.hits.Inc()
				p.success.Inc()
			} else {
				p.misses.Inc()
				miss = append(miss, i)
			}
		}
	} else {
		for i := range keys {
			miss = append(miss, i)
		}
	}
	if len(miss) == 0 {
		p.latency.Observe(p.cfg.Clock.Since(start))
		return values, errs
	}
	estimate := p.est.EstimateReadRU() * float64(len(miss))
	if p.cfg.EnableQuota && !p.limiter.Allow(estimate) {
		p.rejected.Inc()
		for _, i := range miss {
			errs[i] = ErrThrottled
		}
		p.latency.Observe(p.cfg.Clock.Since(start))
		return values, errs
	}
	// Bounded retry: a pass whose failures are routing-shaped (node
	// down, stale epoch, moved partition) re-resolves routes and
	// re-dispatches exactly once, like withRoute on the point path.
	pending := miss
	tickets := make([]uint64, len(keys))
	for attempt := 0; attempt < 2 && len(pending) > 0; attempt++ {
		for _, i := range pending {
			tickets[i] = p.fillTicket(keys[i]) // see GetPref
		}
		batches := p.groupByNode(keys, pending, errs)
		runBounded(len(batches), p.fanout(len(pending)), func(bi int) {
			nb := batches[bi]
			reported := false
			results := nb.node.MultiGet(ctx, nb.gets)
			for g, res := range results {
				if res.Err != nil {
					p.noteBatchNodeErr(nb, res.Err, &reported)
					mapped := mapNodeErr(res.Err)
					for _, i := range nb.idxs[g] {
						errs[i] = mapped
						p.errors.Inc()
					}
					continue
				}
				p.windowRU.Add(res.RU)
				for j, i := range nb.idxs[g] {
					bv := res.Values[j]
					if bv.Err != nil {
						errs[i] = mapNodeErr(bv.Err)
						if errors.Is(bv.Err, datanode.ErrNotFound) {
							p.est.ObserveRead(0, false)
						}
						p.errors.Inc()
						continue
					}
					p.est.ObserveRead(len(bv.Value), bv.CacheHit)
					values[i] = bv.Value
					// TTL-bearing values stay out of the AU-LRU (see Get);
					// TTL-free fills go through the hotness gate.
					if bv.ExpireAt == 0 {
						p.cacheFill(keys[i], bv.Value, ests[i], tickets[i])
					}
					p.success.Inc()
				}
			}
		})
		if attempt == 0 {
			pending = retryPass(pending, errs)
		}
	}
	p.latency.Observe(p.cfg.Clock.Since(start))
	return values, errs
}

// batchWrite is the shared body of BatchPut and BatchDelete: admit the
// whole batch once at the summed write cost, then fan out one MultiWrite
// per owning node.
func (p *Proxy) batchWrite(ctx context.Context, keys [][]byte, op func(i int) datanode.WriteOp, cost float64, onOK func(i int)) []error {
	start := p.cfg.Clock.Now()
	errs := make([]error, len(keys))
	if len(keys) == 0 {
		return errs
	}
	if err := ctx.Err(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	if p.cfg.EnableQuota && !p.limiter.Allow(cost) {
		p.rejected.Inc()
		for i := range errs {
			errs[i] = ErrThrottled
		}
		p.latency.Observe(p.cfg.Clock.Since(start))
		return errs
	}
	idxs := make([]int, len(keys))
	for i := range keys {
		idxs[i] = i
	}
	// Bounded retry shared with BatchGet: routing-shaped failures
	// (including write fences from a demoted primary) re-resolve and
	// re-dispatch once.
	pending := idxs
	for attempt := 0; attempt < 2 && len(pending) > 0; attempt++ {
		batches := p.groupByNode(keys, pending, errs)
		runBounded(len(batches), p.fanout(len(pending)), func(bi int) {
			nb := batches[bi]
			reported := false
			puts := make([]datanode.PutBatch, len(nb.gets))
			for g := range nb.gets {
				ops := make([]datanode.WriteOp, len(nb.idxs[g]))
				for j, i := range nb.idxs[g] {
					ops[j] = op(i)
				}
				puts[g] = datanode.PutBatch{PID: nb.gets[g].PID, Ops: ops, Epoch: nb.epochs[g]}
			}
			results := nb.node.MultiWrite(ctx, puts)
			for g, res := range results {
				if res.Err != nil {
					p.noteBatchNodeErr(nb, res.Err, &reported)
					mapped := mapNodeErr(res.Err)
					for _, i := range nb.idxs[g] {
						errs[i] = mapped
						p.errors.Inc()
					}
					continue
				}
				p.windowRU.Add(res.RU)
				for j, i := range nb.idxs[g] {
					if bvErr := res.Values[j].Err; bvErr != nil {
						errs[i] = mapNodeErr(bvErr)
						// A delete of an absent key still invalidates the
						// proxy cache: its TTL is independent of the
						// engine's, so an engine-expired entry may linger
						// here. (Put ops never report ErrNotFound.)
						if errors.Is(bvErr, datanode.ErrNotFound) {
							onOK(i)
						}
						p.errors.Inc()
						continue
					}
					onOK(i)
					p.success.Inc()
				}
			}
		})
		if attempt == 0 {
			pending = retryPass(pending, errs)
		}
	}
	p.latency.Observe(p.cfg.Clock.Since(start))
	return errs
}

// BatchPut writes kvs through this proxy, admitting the whole batch
// once at the summed write cost and fanning one round trip out per
// owning node. errs is parallel to kvs.
func (p *Proxy) BatchPut(ctx context.Context, kvs []KV) []error {
	keys := make([][]byte, len(kvs))
	var cost float64
	for i, kv := range kvs {
		keys[i] = kv.Key
		cost += ru.WriteRU(len(kv.Value), 3)
	}
	ests := make([]float64, len(kvs))
	if p.cache != nil {
		for i, kv := range kvs {
			ests[i] = p.touchHot(kv.Key)
		}
	}
	return p.batchWrite(ctx, keys,
		func(i int) datanode.WriteOp {
			return datanode.WriteOp{Key: kvs[i].Key, Value: kvs[i].Value, TTL: kvs[i].TTL}
		},
		cost,
		func(i int) {
			if p.cache == nil {
				return
			}
			// TTL'd writes invalidate instead of populate (see Put).
			if kvs[i].TTL > 0 {
				p.cache.Delete(string(kvs[i].Key))
			} else {
				p.cacheWriteThrough(kvs[i].Key, kvs[i].Value, ests[i])
			}
		})
}

// BatchDelete removes keys through this proxy with one admission and a
// per-node fan-out. errs is parallel to keys.
func (p *Proxy) BatchDelete(ctx context.Context, keys [][]byte) []error {
	cost := ru.WriteRU(0, 3) * float64(len(keys))
	return p.batchWrite(ctx, keys,
		func(i int) datanode.WriteOp {
			return datanode.WriteOp{Key: keys[i], Delete: true}
		},
		cost,
		func(i int) {
			if p.cache != nil {
				p.cache.Delete(string(keys[i]))
			}
		})
}

// BatchExists reports key existence without transferring values: AU-LRU
// hits answer immediately, and the rest are resolved by the DataNodes'
// value-free metadata check at a metadata-sized RU cost. exists and
// errs are parallel to keys.
func (p *Proxy) BatchExists(ctx context.Context, keys [][]byte) (exists []bool, errs []error) {
	start := p.cfg.Clock.Now()
	exists = make([]bool, len(keys))
	errs = make([]error, len(keys))
	if err := ctx.Err(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return exists, errs
	}
	miss := make([]int, 0, len(keys))
	if p.cache != nil {
		for i, k := range keys {
			p.touchHot(k)
			if _, ok := p.cache.Get(string(k)); ok {
				exists[i] = true
				p.hits.Inc()
				p.success.Inc()
			} else {
				p.misses.Inc()
				miss = append(miss, i)
			}
		}
	} else {
		for i := range keys {
			miss = append(miss, i)
		}
	}
	if len(miss) == 0 {
		p.latency.Observe(p.cfg.Clock.Since(start))
		return exists, errs
	}
	estimate := p.est.EstimateHLenRU() * float64(len(miss))
	if p.cfg.EnableQuota && !p.limiter.Allow(estimate) {
		p.rejected.Inc()
		for _, i := range miss {
			errs[i] = ErrThrottled
		}
		p.latency.Observe(p.cfg.Clock.Since(start))
		return exists, errs
	}
	pending := miss
	for attempt := 0; attempt < 2 && len(pending) > 0; attempt++ {
		batches := p.groupByNode(keys, pending, errs)
		runBounded(len(batches), p.fanout(len(pending)), func(bi int) {
			nb := batches[bi]
			reported := false
			results := nb.node.MultiContains(ctx, nb.gets)
			for g, res := range results {
				if res.Err != nil {
					p.noteBatchNodeErr(nb, res.Err, &reported)
					mapped := mapNodeErr(res.Err)
					for _, i := range nb.idxs[g] {
						errs[i] = mapped
						p.errors.Inc()
					}
					continue
				}
				// Existence checks consume DataNode RU too; feed traffic
				// control like any other admitted work.
				p.windowRU.Add(res.RU)
				for j, i := range nb.idxs[g] {
					switch bvErr := res.Values[j].Err; {
					case bvErr == nil:
						exists[i] = true
						p.success.Inc()
					case errors.Is(bvErr, datanode.ErrNotFound):
						// Absent is a successful answer, not a failure.
						p.success.Inc()
					default:
						errs[i] = mapNodeErr(bvErr)
						p.errors.Inc()
					}
				}
			}
		})
		if attempt == 0 {
			pending = retryPass(pending, errs)
		}
	}
	p.latency.Observe(p.cfg.Clock.Since(start))
	return exists, errs
}

// fleetFanout mirrors Proxy.fanout at the fleet layer: tiny batches
// dispatch to their proxies serially.
func fleetFanout(totalKeys, subs int) int {
	if totalKeys <= 8 {
		return 1
	}
	return subs
}

// fleetSub is the slice of a fleet batch assigned to one proxy.
type fleetSub struct {
	proxy *Proxy
	idxs  []int
}

// assign groups batch positions by owning proxy group, picking one
// random member per group for the whole batch (the limited fan-out
// hash strategy applied once per batch instead of once per key).
func (f *Fleet) assign(keys [][]byte) []*fleetSub {
	members := make([]*Proxy, len(f.groups))
	f.mu.Lock()
	for g, ps := range f.groups {
		members[g] = ps[f.rng.Intn(len(ps))]
	}
	f.mu.Unlock()
	subs := make([]*fleetSub, len(f.groups))
	var order []*fleetSub
	for i, k := range keys {
		g := int(partition.Hash(k) % uint64(len(f.groups)))
		if subs[g] == nil {
			subs[g] = &fleetSub{proxy: members[g]}
			order = append(order, subs[g])
		}
		subs[g].idxs = append(subs[g].idxs, i)
	}
	return order
}

// BatchGet reads keys across the fleet: keys group per proxy (one
// routing decision per group), and each proxy executes its share as a
// single admitted batch. The returned slices are parallel to keys.
func (f *Fleet) BatchGet(ctx context.Context, keys [][]byte) (values [][]byte, errs []error) {
	values = make([][]byte, len(keys))
	errs = make([]error, len(keys))
	subs := f.assign(keys)
	runBounded(len(subs), fleetFanout(len(keys), len(subs)), func(si int) {
		sub := subs[si]
		sel := make([][]byte, len(sub.idxs))
		for j, i := range sub.idxs {
			sel[j] = keys[i]
		}
		vs, es := sub.proxy.BatchGet(ctx, sel)
		for j, i := range sub.idxs {
			values[i], errs[i] = vs[j], es[j]
		}
	})
	return values, errs
}

// BatchPut writes kvs across the fleet; errs is parallel to kvs.
func (f *Fleet) BatchPut(ctx context.Context, kvs []KV) []error {
	errs := make([]error, len(kvs))
	keys := make([][]byte, len(kvs))
	for i, kv := range kvs {
		keys[i] = kv.Key
	}
	subs := f.assign(keys)
	runBounded(len(subs), fleetFanout(len(kvs), len(subs)), func(si int) {
		sub := subs[si]
		sel := make([]KV, len(sub.idxs))
		for j, i := range sub.idxs {
			sel[j] = kvs[i]
		}
		es := sub.proxy.BatchPut(ctx, sel)
		for j, i := range sub.idxs {
			errs[i] = es[j]
		}
	})
	return errs
}

// BatchDelete removes keys across the fleet; errs is parallel to keys.
func (f *Fleet) BatchDelete(ctx context.Context, keys [][]byte) []error {
	errs := make([]error, len(keys))
	subs := f.assign(keys)
	runBounded(len(subs), fleetFanout(len(keys), len(subs)), func(si int) {
		sub := subs[si]
		sel := make([][]byte, len(sub.idxs))
		for j, i := range sub.idxs {
			sel[j] = keys[i]
		}
		es := sub.proxy.BatchDelete(ctx, sel)
		for j, i := range sub.idxs {
			errs[i] = es[j]
		}
	})
	return errs
}

// BatchExists reports key existence across the fleet without value
// transfer; both slices are parallel to keys.
func (f *Fleet) BatchExists(ctx context.Context, keys [][]byte) (exists []bool, errs []error) {
	exists = make([]bool, len(keys))
	errs = make([]error, len(keys))
	subs := f.assign(keys)
	runBounded(len(subs), fleetFanout(len(keys), len(subs)), func(si int) {
		sub := subs[si]
		sel := make([][]byte, len(sub.idxs))
		for j, i := range sub.idxs {
			sel[j] = keys[i]
		}
		ex, es := sub.proxy.BatchExists(ctx, sel)
		for j, i := range sub.idxs {
			exists[i], errs[i] = ex[j], es[j]
		}
	})
	return exists, errs
}
