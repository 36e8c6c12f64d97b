package datanode

import (
	"context"
	"errors"
	"sync"
	"time"

	"abase/internal/lavastore"
	"abase/internal/partition"
	"abase/internal/ru"
	"abase/internal/wfq"
)

// WriteOp is one element of a batched write: a put, or a delete when
// Delete is set (Value and TTL are then ignored).
type WriteOp struct {
	Key    []byte
	Value  []byte
	TTL    time.Duration
	Delete bool
}

// BatchValue is one key's outcome inside a batch operation. Err is nil
// on success, ErrNotFound for an absent key, or an engine error; the
// other keys in the batch are unaffected.
type BatchValue struct {
	Value    []byte
	Err      error
	CacheHit bool
	// ExpireAt is the record's TTL deadline (Unix seconds, 0 = none) on
	// reads; caching layers above must not hold TTL-bearing values.
	ExpireAt int64
}

// BatchResult reports one partition sub-batch of a node batch. Values
// is parallel to the sub-batch's keys/ops; RU is the aggregate charge.
// Err is the sub-batch-level outcome (ErrThrottled when the partition
// quota rejected the whole sub-batch, ErrNoPartition, ErrOverloaded);
// when it is non-nil the Values slots are not meaningful.
type BatchResult struct {
	Values  []BatchValue
	RU      float64
	Latency time.Duration
	Err     error
}

// GetBatch is the slice of a node batch that reads one partition.
type GetBatch struct {
	PID  partition.ID
	Keys [][]byte
}

// PutBatch is the slice of a node batch that writes one partition.
// Epoch, when non-zero, is the route epoch the caller believes is
// current; the sub-batch is fenced with ErrStaleEpoch on mismatch.
type PutBatch struct {
	PID   partition.ID
	Ops   []WriteOp
	Epoch uint64
}

// groupRun is the per-partition execution state of one node batch.
type groupRun struct {
	idx  int // index into the caller's group slice
	rep  *replica
	ts   *tenantStats
	est  *ru.Estimator
	cost float64 // RU admission cost for the whole sub-batch
	task *wfq.Task
	// charged flips once the partition limiter admits the sub-batch; a
	// task dropped after that point (queue abort, closed scheduler)
	// never executes, so the RU goes back. Written before sched.Submit
	// and read only by the scheduler afterwards, so it is ordered.
	charged bool
	// lastSeq is the engine sequence the sub-batch's final record
	// committed at — the whole group's replication position. Written in
	// the IOStage, read after wg.Wait, so it is ordered.
	lastSeq uint64
}

// runMulti is the shared node-batch engine: it enters the request
// queue ONCE for the whole batch (one AdmitCost, one queue slot — the
// batched request is one network request), admits each partition
// sub-batch against its own partition quota at the summed cost, and
// submits one WFQ task per admitted sub-batch. Each task's Done (wired
// by the caller) must release wg exactly once; runs whose quota
// rejects or whose submission fails are released here.
func (n *Node) runMulti(ctx context.Context, runs []*groupRun, out []BatchResult, wg *sync.WaitGroup) {
	queued := n.admit.submit(func() {
		// A batch canceled while queued aborts before the worker spends
		// admit cost or quota on any of its sub-batches.
		if err := ctx.Err(); err != nil {
			for _, r := range runs {
				out[r.idx].Err = err
				wg.Done()
			}
			return
		}
		burn(n.cfg.Clock, n.cfg.AdmitCost)
		for _, r := range runs {
			if n.quotaOn.Load() {
				if !r.rep.limiter.Allow(r.cost) {
					burn(n.cfg.Clock, n.cfg.RejectCost)
					r.ts.throttled.Inc()
					out[r.idx].Err = ErrThrottled
					wg.Done()
					continue
				}
				r.charged = true
			}
			if !n.sched.Submit(r.task) {
				if r.charged {
					r.rep.limiter.Refund(r.cost)
				}
				out[r.idx].Err = errors.New("datanode: scheduler closed")
				wg.Done()
			}
		}
	})
	if !queued {
		for _, r := range runs {
			r.ts.errors.Inc()
			out[r.idx].Err = ErrOverloaded
			wg.Done()
		}
	}
}

// MultiGet executes one node batch of reads: every partition sub-batch
// hosted here is served under a single request-queue admission, one
// WFQ task and one quota charge per sub-batch, and one SA-LRU/engine
// pass over its keys. The result slice is parallel to groups.
func (n *Node) MultiGet(ctx context.Context, groups []GetBatch) []BatchResult {
	out := make([]BatchResult, len(groups))
	start := n.cfg.Clock.Now()
	var runs []*groupRun
	var wg sync.WaitGroup
	for i, g := range groups {
		if len(g.Keys) == 0 {
			continue
		}
		rep, err := n.getReplica(g.PID)
		if err != nil {
			out[i].Err = err
			continue
		}
		ts, est := n.tenantState(g.PID.Tenant)
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			continue
		}
		rep.recordAccessBatch(g.Keys) // offered load heats even if shed
		if err := n.admitCtx(ctx, ts); err != nil {
			out[i].Err = err
			continue
		}
		vals := make([]BatchValue, len(g.Keys))
		out[i].Values = vals
		r := &groupRun{idx: i, rep: rep, ts: ts, est: est,
			cost: est.EstimateReadRU() * float64(len(g.Keys))}
		pid, keys := g.PID, g.Keys
		task := &wfq.Task{
			Tenant:     pid.Tenant,
			Partition:  pid.String(),
			Class:      wfq.ClassFor(false, int(est.ExpectedReadSize())),
			RUCost:     r.cost,
			IOPSCost:   float64(len(keys)),
			QuotaShare: n.quotaShare(rep),
			Ctx:        ctx,
		}
		task.CPUStage = func() bool {
			burn(n.cfg.Clock, n.cfg.Cost.CPUTime)
			needIO := false
			for k, key := range keys {
				if v, ok := n.cache.Get(cacheKey(pid, key)); ok {
					vals[k] = BatchValue{Value: v, CacheHit: true}
				} else {
					needIO = true
				}
			}
			return needIO
		}
		task.IOStage = func() {
			for k, key := range keys {
				if vals[k].CacheHit {
					continue
				}
				ck := cacheKey(pid, key)
				ticket := n.cache.FillTicket(ck) // see Node.Get
				got, err := rep.db.Get(key)
				reads := got.IOReads
				if reads < 1 {
					reads = 1
				}
				burn(n.cfg.Clock, time.Duration(reads)*n.cfg.Cost.IOReadTime)
				if err != nil {
					if errors.Is(err, lavastore.ErrNotFound) {
						vals[k].Err = ErrNotFound
					} else {
						vals[k].Err = err
					}
					continue
				}
				if n.beforeFill != nil {
					n.beforeFill()
				}
				// TTL-bearing values stay uncached: the SA-LRU has no
				// per-entry expiry (see Node.Get).
				if got.ExpireAt == 0 {
					n.cache.Fill(ck, got.Value, ticket)
				}
				vals[k].Value = got.Value
				vals[k].ExpireAt = got.ExpireAt
			}
		}
		task.Abort = func(err error) {
			if r.charged {
				r.rep.limiter.Refund(r.cost)
			}
			out[r.idx].Err = err
			wg.Done()
		}
		task.Done = wg.Done
		r.task = task
		runs = append(runs, r)
	}
	if len(runs) > 0 {
		wg.Add(len(runs))
		n.runMulti(ctx, runs, out, &wg)
		wg.Wait()
	}
	lat := n.cfg.Clock.Since(start)
	n.observeServiceTime(lat)
	for _, r := range runs {
		o := &out[r.idx]
		o.Latency = lat
		if o.Err != nil {
			continue
		}
		for k := range o.Values {
			bv := &o.Values[k]
			switch {
			case bv.Err == nil:
				r.est.ObserveRead(len(bv.Value), bv.CacheHit)
				o.RU += ru.ReadRU(len(bv.Value), boolTo01(bv.CacheHit))
				r.ts.success.Inc()
				if bv.CacheHit {
					r.ts.cacheHits.Inc()
				} else {
					r.ts.cacheMiss.Inc()
				}
			case errors.Is(bv.Err, ErrNotFound):
				r.est.ObserveRead(0, false)
				r.ts.errors.Inc()
			default:
				r.ts.errors.Inc()
			}
		}
		r.ts.ruUsed.Add(o.RU)
		r.ts.latency.Observe(lat)
	}
	return out
}

// MultiWrite executes one node batch of writes: a single request-queue
// admission for the node batch, one WFQ write task and one quota
// charge per partition sub-batch, and per-op error slots. Successful
// ops replicate individually (replication stays per-key and
// asynchronous). The result slice is parallel to groups.
func (n *Node) MultiWrite(ctx context.Context, groups []PutBatch) []BatchResult {
	out := make([]BatchResult, len(groups))
	start := n.cfg.Clock.Now()
	var runs []*groupRun
	var wg sync.WaitGroup
	for i, g := range groups {
		if len(g.Ops) == 0 {
			continue
		}
		rep, err := n.getReplica(g.PID)
		if err != nil {
			out[i].Err = err
			continue
		}
		// Fence the whole sub-batch before any accounting (see write).
		if err := rep.checkWrite(g.Epoch); err != nil {
			out[i].Err = err
			continue
		}
		ts, est := n.tenantState(g.PID.Tenant)
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			continue
		}
		rep.recordAccessOps(g.Ops) // offered load heats even if shed
		if err := n.admitCtx(ctx, ts); err != nil {
			out[i].Err = err
			continue
		}
		vals := make([]BatchValue, len(g.Ops))
		out[i].Values = vals
		var cost float64
		totalSize := 0
		for _, op := range g.Ops {
			size := 0
			if !op.Delete {
				size = len(op.Value)
			}
			cost += ru.WriteRU(size, n.cfg.Replicas)
			totalSize += size
		}
		r := &groupRun{idx: i, rep: rep, ts: ts, est: est, cost: cost}
		pid, ops := g.PID, g.Ops
		task := &wfq.Task{
			Tenant:     pid.Tenant,
			Partition:  pid.String(),
			Class:      wfq.ClassFor(true, totalSize),
			RUCost:     cost,
			IOPSCost:   float64(len(ops)),
			QuotaShare: n.quotaShare(rep),
			Ctx:        ctx,
			CPUStage: func() bool {
				burn(n.cfg.Clock, n.cfg.Cost.CPUTime)
				return true // writes always reach the I/O layer (WAL)
			},
			IOStage: func() {
				burn(n.cfg.Clock, time.Duration(len(ops))*n.cfg.Cost.IOWriteTime)
				prefix := cacheKeyPrefix(pid)
				batch := make([]lavastore.BatchOp, 0, len(ops))
				applied := make([]int, 0, len(ops)) // op index per batch entry
				// live tracks each touched key's existence as the
				// batch's own ops apply in order; the engine probe
				// only answers for pre-batch state.
				var live map[string]bool
				liveState := func(key []byte) (exists, known bool) {
					exists, known = live[string(key)]
					return exists, known
				}
				setLive := func(key []byte, exists bool) {
					if live == nil {
						live = make(map[string]bool)
					}
					live[string(key)] = exists
				}
				for k, op := range ops {
					if op.Delete {
						// Deleting an absent key is a no-op that must
						// report ErrNotFound (Redis DEL counts only
						// existing keys).
						exists, known := liveState(op.Key)
						if !known {
							// Real metadata read; charge it as one.
							burn(n.cfg.Clock, n.cfg.Cost.IOReadTime)
							_, err := rep.db.TTL(op.Key)
							exists = !errors.Is(err, lavastore.ErrNotFound)
						}
						if !exists {
							vals[k].Err = ErrNotFound
							setLive(op.Key, false)
							continue
						}
						setLive(op.Key, false)
					} else {
						setLive(op.Key, true)
					}
					batch = append(batch, lavastore.BatchOp{Key: op.Key, Value: op.Value, TTL: op.TTL, Delete: op.Delete})
					applied = append(applied, k)
				}
				last, err := rep.db.WriteBatchSeq(batch)
				if err != nil {
					for _, k := range applied {
						vals[k].Err = err
					}
					return
				}
				r.lastSeq = last
				// Write-through keeps the node cache coherent — except
				// for TTL-bearing values, which the SA-LRU cannot expire
				// and so must not hold (see Node.Get).
				for _, k := range applied {
					op := ops[k]
					ck := prefix + string(op.Key)
					if op.Delete || op.TTL > 0 {
						n.cache.Delete(ck)
					} else {
						n.cache.Put(ck, op.Value)
					}
				}
			},
		}
		task.Abort = func(err error) {
			if r.charged {
				r.rep.limiter.Refund(r.cost)
			}
			out[r.idx].Err = err
			wg.Done()
		}
		task.Done = wg.Done
		r.task = task
		runs = append(runs, r)
	}
	if len(runs) > 0 {
		wg.Add(len(runs))
		n.runMulti(ctx, runs, out, &wg)
		wg.Wait()
	}
	lat := n.cfg.Clock.Since(start)
	n.observeServiceTime(lat)
	for _, r := range runs {
		o := &out[r.idx]
		o.Latency = lat
		if o.Err != nil {
			continue
		}
		ok := make([]WriteOp, 0, len(groups[r.idx].Ops))
		for k, op := range groups[r.idx].Ops {
			if o.Values[k].Err != nil {
				r.ts.errors.Inc()
				continue
			}
			size := 0
			if !op.Delete {
				size = len(op.Value)
			}
			o.RU += ru.WriteRU(size, n.cfg.Replicas)
			ok = append(ok, op)
			r.ts.success.Inc()
		}
		if len(ok) > 0 {
			// ok is exactly the set (and order) the engine committed, so
			// the batch's records occupy the contiguous sequence range
			// ending at lastSeq on every replica (see ops.go write).
			r.rep.advancePos(r.lastSeq)
			n.replicator.ReplicateBatch(r.rep.id, ok, r.lastSeq)
		}
		r.ts.ruUsed.Add(o.RU)
		r.ts.latency.Observe(lat)
	}
	return out
}

// MultiContains resolves key existence for one node batch without
// transferring values: SA-LRU presence answers directly, and the rest
// use the engine's record-metadata lookup (the same value-free path
// TTL uses). Each sub-batch is admitted at a metadata-sized RU cost
// rather than a full read estimate per key. In the result, a slot's
// Err is nil when the key exists and ErrNotFound when it does not.
func (n *Node) MultiContains(ctx context.Context, groups []GetBatch) []BatchResult {
	out := make([]BatchResult, len(groups))
	start := n.cfg.Clock.Now()
	var runs []*groupRun
	var wg sync.WaitGroup
	for i, g := range groups {
		if len(g.Keys) == 0 {
			continue
		}
		rep, err := n.getReplica(g.PID)
		if err != nil {
			out[i].Err = err
			continue
		}
		ts, est := n.tenantState(g.PID.Tenant)
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			continue
		}
		rep.recordAccessBatch(g.Keys) // offered load heats even if shed
		if err := n.admitCtx(ctx, ts); err != nil {
			out[i].Err = err
			continue
		}
		vals := make([]BatchValue, len(g.Keys))
		out[i].Values = vals
		r := &groupRun{idx: i, rep: rep, ts: ts, est: est,
			cost: est.EstimateHLenRU() * float64(len(g.Keys))}
		pid, keys := g.PID, g.Keys
		resolved := make([]bool, len(keys))
		task := &wfq.Task{
			Tenant:     pid.Tenant,
			Partition:  pid.String(),
			Class:      wfq.SmallRead,
			RUCost:     r.cost,
			IOPSCost:   float64(len(keys)),
			QuotaShare: n.quotaShare(rep),
			Ctx:        ctx,
		}
		task.CPUStage = func() bool {
			burn(n.cfg.Clock, n.cfg.Cost.CPUTime)
			needIO := false
			for k, key := range keys {
				if _, ok := n.cache.Get(cacheKey(pid, key)); ok {
					resolved[k] = true
				} else {
					needIO = true
				}
			}
			return needIO
		}
		task.IOStage = func() {
			for k, key := range keys {
				if resolved[k] {
					continue
				}
				burn(n.cfg.Clock, n.cfg.Cost.IOReadTime)
				switch _, err := rep.db.TTL(key); {
				case err == nil || errors.Is(err, lavastore.ErrNoTTL):
					// exists
				case errors.Is(err, lavastore.ErrNotFound):
					vals[k].Err = ErrNotFound
				default:
					// Engine failure is not "absent" — surface it.
					vals[k].Err = err
				}
			}
		}
		task.Abort = func(err error) {
			if r.charged {
				r.rep.limiter.Refund(r.cost)
			}
			out[r.idx].Err = err
			wg.Done()
		}
		task.Done = wg.Done
		r.task = task
		runs = append(runs, r)
	}
	if len(runs) > 0 {
		wg.Add(len(runs))
		n.runMulti(ctx, runs, out, &wg)
		wg.Wait()
	}
	lat := n.cfg.Clock.Since(start)
	n.observeServiceTime(lat)
	for _, r := range runs {
		o := &out[r.idx]
		o.Latency = lat
		if o.Err != nil {
			continue
		}
		o.RU = r.cost
		for k := range o.Values {
			if o.Values[k].Err == nil {
				r.ts.success.Inc()
			} else {
				r.ts.errors.Inc()
			}
		}
		r.ts.ruUsed.Add(o.RU)
		r.ts.latency.Observe(lat)
	}
	return out
}

// BatchGet reads a sub-batch of keys that all live in pid — the
// single-partition form of MultiGet.
func (n *Node) BatchGet(ctx context.Context, pid partition.ID, keys [][]byte) (BatchResult, error) {
	if len(keys) == 0 {
		return BatchResult{}, nil
	}
	res := n.MultiGet(ctx, []GetBatch{{PID: pid, Keys: keys}})[0]
	return res, res.Err
}

// BatchWrite applies a sub-batch of writes that all live in pid — the
// single-partition form of MultiWrite.
func (n *Node) BatchWrite(ctx context.Context, pid partition.ID, ops []WriteOp) (BatchResult, error) {
	if len(ops) == 0 {
		return BatchResult{}, nil
	}
	res := n.MultiWrite(ctx, []PutBatch{{PID: pid, Ops: ops}})[0]
	return res, res.Err
}

// BatchContains reports, for each key in pid, whether it currently
// exists — the single-partition form of MultiContains.
func (n *Node) BatchContains(ctx context.Context, pid partition.ID, keys [][]byte) ([]bool, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	res := n.MultiContains(ctx, []GetBatch{{PID: pid, Keys: keys}})[0]
	if res.Err != nil {
		return nil, res.Err
	}
	exists := make([]bool, len(res.Values))
	for i, bv := range res.Values {
		exists[i] = bv.Err == nil
	}
	return exists, nil
}
