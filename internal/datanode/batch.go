package datanode

import (
	"context"
	"errors"
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
	// reads and existence checks; caching layers above must not hold
	// TTL-bearing values.
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

// size is the payload a write bills (deletes carry none).
func (op WriteOp) size() int {
	if op.Delete {
		return 0
	}
	return len(op.Value)
}

func toBatchOps(ops []WriteOp) []lavastore.BatchOp {
	batch := make([]lavastore.BatchOp, len(ops))
	for i, op := range ops {
		batch[i] = lavastore.BatchOp{Key: op.Key, Value: op.Value, TTL: op.TTL, Delete: op.Delete}
	}
	return batch
}

// batch runs a node batch of count partition groups as ONE request —
// one request-queue admission and AdmitCost, as the batched request is
// one network request — with one stage, quota charge and WFQ task per
// group. build returns group i's stage, nil for an empty group, or the
// error that kept the group out at the front door.
func (n *Node) batch(ctx context.Context, count int, build func(i int) (*stage, error)) []BatchResult {
	out := make([]BatchResult, count)
	stages := make([]*stage, 0, count)
	idx := make([]int, 0, count)
	for i := range out {
		s, err := build(i)
		switch {
		case err != nil:
			out[i].Err = err
		case s != nil:
			stages = append(stages, s)
			idx = append(idx, i)
		}
	}
	if len(stages) == 0 {
		return out
	}
	lat := n.exec(ctx, stages...)
	for j, s := range stages {
		out[idx[j]] = BatchResult{Values: s.vals, Latency: lat, Err: s.err}
		if s.err == nil {
			out[idx[j]].RU = s.ru
		}
	}
	return out
}

// MultiGet executes one node batch of reads: every partition sub-batch
// hosted here is served under a single request-queue admission, one
// WFQ task and one quota charge per sub-batch, and one SA-LRU/engine
// pass over its keys. The result slice is parallel to groups.
func (n *Node) MultiGet(ctx context.Context, groups []GetBatch) []BatchResult {
	return n.batch(ctx, len(groups), func(i int) (*stage, error) {
		g := groups[i]
		if len(g.Keys) == 0 {
			return nil, nil
		}
		s, err := n.open(ctx, g.PID, false, 0, func(r *replica) { r.recordAccessBatch(g.Keys) })
		if err != nil {
			return nil, err
		}
		n.readStage(s, g.Keys)
		return s, nil
	})
}

// readStage serves keys from the SA-LRU in the CPU stage and the rest
// from the engine in the I/O stage, billing each read on its actual
// size and cache outcome (§4.1).
func (n *Node) readStage(s *stage, keys [][]byte) {
	s.class = wfq.ClassFor(false, int(s.est.ExpectedReadSize()))
	s.cost = s.est.EstimateReadRU() * float64(len(keys))
	s.iops = float64(len(keys))
	s.vals = make([]BatchValue, len(keys))
	prefix := cacheKeyPrefix(s.rep.id.Partition)
	s.cpu = func() bool {
		needIO := false
		for k, key := range keys {
			if v, ok := n.cache.Get(prefix + string(key)); ok {
				s.vals[k] = BatchValue{Value: v, CacheHit: true}
				s.est.ObserveRead(len(v), true)
				s.ok++
				s.hits++
			} else {
				needIO = true
			}
		}
		return needIO
	}
	s.io = func() (d time.Duration) {
		for k, key := range keys {
			bv := &s.vals[k]
			if bv.CacheHit {
				continue
			}
			ck := prefix + string(key)
			// The ticket orders the fill below against writes that
			// commit and write through while this read is in flight.
			ticket := n.cache.FillTicket(ck)
			got, err := s.rep.db.Get(key)
			d += time.Duration(max(got.IOReads, 1)) * n.cfg.Cost.IOReadTime
			if err != nil {
				bv.Err = err
				if errors.Is(err, lavastore.ErrNotFound) {
					// An absent key still cost a lookup: size 0, miss.
					bv.Err = ErrNotFound
					s.est.ObserveRead(0, false)
				}
				s.failed++
				continue
			}
			if n.beforeFill != nil {
				n.beforeFill()
			}
			// The SA-LRU has no per-entry expiry, so caching a TTL-bearing
			// value would keep serving it after the record expires — point
			// reads would then disagree with Scan/Keys, which consult the
			// engine. TTL'd values stay uncached.
			if got.ExpireAt == 0 {
				n.cache.Fill(ck, got.Value, ticket)
			}
			bv.Value, bv.ExpireAt = got.Value, got.ExpireAt
			s.est.ObserveRead(len(got.Value), false)
			s.ru += ru.ReadRU(len(got.Value), 0)
			s.ok++
			s.misses++
		}
		return d
	}
}

// MultiWrite executes one node batch of writes: a single request-queue
// admission for the node batch, one WFQ write task and one quota
// charge per partition sub-batch, and per-op error slots. Each
// sub-batch commits as one group commit and replicates as one message
// per follower. The result slice is parallel to groups.
func (n *Node) MultiWrite(ctx context.Context, groups []PutBatch) []BatchResult {
	return n.batch(ctx, len(groups), func(i int) (*stage, error) {
		g := groups[i]
		if len(g.Ops) == 0 {
			return nil, nil
		}
		s, err := n.open(ctx, g.PID, true, g.Epoch, func(r *replica) { r.recordAccessOps(g.Ops) })
		if err != nil {
			return nil, err
		}
		n.writeStage(s, g.Ops)
		return s, nil
	})
}

// writeStage commits ops on the primary as one group commit under
// their key stripes, writing through the SA-LRU. Deleting an absent key
// is a no-op that reports ErrNotFound (Redis DEL counts only existing
// keys) and writes no tombstone.
func (n *Node) writeStage(s *stage, ops []WriteOp) {
	totalSize := 0
	for _, op := range ops {
		s.cost += ru.WriteRU(op.size(), n.cfg.Replicas)
		totalSize += op.size()
	}
	s.class = wfq.ClassFor(true, totalSize)
	s.iops = float64(len(ops))
	s.vals = make([]BatchValue, len(ops))
	rep := s.rep
	s.io = func() time.Duration {
		d := time.Duration(len(ops)) * n.cfg.Cost.IOWriteTime
		var held stripeSet
		for _, op := range ops {
			held |= stripeOf(op.Key)
		}
		rep.lock(held)
		defer rep.unlock(held)
		batch := make([]WriteOp, 0, len(ops))
		// live tracks each touched key's existence as the batch's own
		// ops apply in order; the engine probe only answers for
		// pre-batch state.
		var live map[string]bool
		for k, op := range ops {
			exists, known := live[string(op.Key)]
			if op.Delete && !known {
				// A real metadata read; charge it as one.
				d += n.cfg.Cost.IOReadTime
				_, err := rep.db.TTL(op.Key)
				exists = !errors.Is(err, lavastore.ErrNotFound)
			}
			if len(ops) > 1 {
				if live == nil {
					live = make(map[string]bool)
				}
				live[string(op.Key)] = !op.Delete
			}
			if op.Delete && !exists {
				s.vals[k].Err = ErrNotFound
				s.failed++
				continue
			}
			batch = append(batch, op)
		}
		if len(batch) == 0 {
			return d
		}
		pos, err := n.commit(rep, batch, 0, true)
		if err != nil {
			for k := range s.vals {
				if s.vals[k].Err == nil {
					s.vals[k].Err = err
					s.failed++
				}
			}
			return d
		}
		for _, op := range batch {
			s.ru += ru.WriteRU(op.size(), n.cfg.Replicas)
		}
		s.ok += int64(len(batch))
		s.repl, s.pos = batch, pos
		return d
	}
}

// MultiContains resolves key existence for one node batch without
// transferring values: SA-LRU presence answers directly, and the rest
// use the engine's record-metadata lookup. Each sub-batch is admitted
// and billed at a metadata-sized RU cost rather than a full read
// estimate per key. In the result, a slot's Err is nil when the key
// exists and ErrNotFound when it does not; ExpireAt carries an existing
// key's TTL deadline (0 = none).
func (n *Node) MultiContains(ctx context.Context, groups []GetBatch) []BatchResult {
	return n.batch(ctx, len(groups), func(i int) (*stage, error) {
		g := groups[i]
		if len(g.Keys) == 0 {
			return nil, nil
		}
		s, err := n.open(ctx, g.PID, false, 0, func(r *replica) { r.recordAccessBatch(g.Keys) })
		if err != nil {
			return nil, err
		}
		n.containsStage(s, g.Keys)
		return s, nil
	})
}

func (n *Node) containsStage(s *stage, keys [][]byte) {
	s.class = wfq.SmallRead
	s.cost = s.est.EstimateHLenRU() * float64(len(keys))
	s.iops = float64(len(keys))
	s.vals = make([]BatchValue, len(keys))
	prefix := cacheKeyPrefix(s.rep.id.Partition)
	s.cpu = func() bool {
		s.ru = s.cost
		needIO := false
		for k, key := range keys {
			// The SA-LRU holds only TTL-free values.
			if _, ok := n.cache.Get(prefix + string(key)); ok {
				s.vals[k].CacheHit = true
				s.ok++
			} else {
				needIO = true
			}
		}
		return needIO
	}
	s.io = func() (d time.Duration) {
		for k, key := range keys {
			bv := &s.vals[k]
			if bv.CacheHit {
				continue
			}
			d += n.cfg.Cost.IOReadTime
			ttl, err := s.rep.db.TTL(key)
			switch {
			case err == nil:
				bv.ExpireAt = n.cfg.Clock.Now().Add(ttl).Unix()
			case errors.Is(err, lavastore.ErrNoTTL):
			case errors.Is(err, lavastore.ErrNotFound):
				bv.Err = ErrNotFound
			default:
				// Engine failure is not "absent" — surface it.
				bv.Err = err
			}
			if bv.Err != nil {
				s.failed++
			} else {
				s.ok++
			}
		}
		return d
	}
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
