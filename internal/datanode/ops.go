package datanode

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"abase/internal/lavastore"
	"abase/internal/partition"
	"abase/internal/ru"
	"abase/internal/wfq"
)

// OpResult reports one completed operation.
type OpResult struct {
	Value    []byte
	CacheHit bool
	RU       float64
	Latency  time.Duration
	// ExpireAt is the record's TTL deadline (Unix seconds, 0 = none) on
	// reads. Caching layers above must not hold TTL-bearing values past
	// it; this system's caches decline to hold them at all.
	ExpireAt int64
}

// Get reads key from the hosted replica of pid, flowing through the
// full isolation pipeline. ctx bounds the request end to end: a
// context that is already done (or whose deadline cannot be met by the
// estimated queue wait) fails fast before any admission, and a cancel
// while the request waits in the admission queue or a WFQ aborts it
// at the next dequeue point without executing.
func (n *Node) Get(ctx context.Context, pid partition.ID, key []byte) (OpResult, error) {
	rep, err := n.getReplica(pid)
	if err != nil {
		return OpResult{}, err
	}
	ts, est := n.tenantState(pid.Tenant)
	if err := ctx.Err(); err != nil {
		return OpResult{}, err // the caller is gone: not offered load
	}
	// Heat is recorded at arrival (before admission — including the
	// deadline shed below) so the control plane sees offered load: a
	// partition shedding or throttling its burst away is exactly the
	// one that needs a split.
	rep.recordAccess(key)
	if err := n.admitCtx(ctx, ts); err != nil {
		return OpResult{}, err
	}
	estimate := est.EstimateReadRU()

	start := n.cfg.Clock.Now()
	ck := cacheKey(pid, key)
	type outcome struct {
		val []byte
		hit bool
		exp int64
		err error
	}
	var out outcome
	done := make(chan struct{})
	finish := func(o outcome) {
		out = o
		close(done)
	}
	task := &wfq.Task{
		Tenant:     pid.Tenant,
		Partition:  pid.String(),
		Class:      wfq.ClassFor(false, int(est.ExpectedReadSize())),
		RUCost:     estimate,
		IOPSCost:   1,
		QuotaShare: n.quotaShare(rep),
		Ctx:        ctx,
	}
	// quotaCharged flips once the partition limiter admits the request; a
	// task dropped after that point (queue abort, closed scheduler)
	// never executes, so the RU goes back. Written before sched.Submit
	// and read only by the scheduler afterwards, so it is ordered.
	var quotaCharged bool
	task.Abort = func(err error) {
		if quotaCharged {
			rep.limiter.Refund(estimate)
		}
		finish(outcome{err: err})
	}
	var res outcome
	task.CPUStage = func() bool {
		burn(n.cfg.Clock, n.cfg.Cost.CPUTime)
		if v, ok := n.cache.Get(ck); ok {
			res = outcome{val: v, hit: true}
			return false
		}
		return true // miss: proceed to the I/O layer
	}
	task.IOStage = func() {
		// The ticket orders the fill below against writes that commit
		// and write through while this read is in flight.
		ticket := n.cache.FillTicket(ck)
		got, err := rep.db.Get(key)
		reads := got.IOReads
		if reads < 1 {
			reads = 1
		}
		burn(n.cfg.Clock, time.Duration(reads)*n.cfg.Cost.IOReadTime)
		if err != nil {
			if errors.Is(err, lavastore.ErrNotFound) {
				res = outcome{err: ErrNotFound}
			} else {
				res = outcome{err: err}
			}
			return
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
		res = outcome{val: got.Value, exp: got.ExpireAt}
	}
	task.Done = func() { finish(res) }

	// Request-queue stage: quota filtering happens here, so a flood of
	// over-quota traffic occupies the queue workers (Figure 6).
	queued := n.admit.submit(func() {
		// A request canceled while queued aborts before the worker
		// spends admit cost or quota on it.
		if err := ctx.Err(); err != nil {
			finish(outcome{err: err})
			return
		}
		burn(n.cfg.Clock, n.cfg.AdmitCost)
		if n.quotaOn.Load() {
			if !rep.limiter.Allow(estimate) {
				burn(n.cfg.Clock, n.cfg.RejectCost)
				ts.throttled.Inc()
				finish(outcome{err: ErrThrottled})
				return
			}
			quotaCharged = true
		}
		if !n.sched.Submit(task) {
			if quotaCharged {
				rep.limiter.Refund(estimate)
			}
			finish(outcome{err: errors.New("datanode: scheduler closed")})
		}
	})
	if !queued {
		ts.errors.Inc()
		return OpResult{}, ErrOverloaded
	}
	<-done

	lat := n.cfg.Clock.Since(start)
	n.observeServiceTime(lat)
	if out.err != nil {
		if errors.Is(out.err, ErrThrottled) {
			return OpResult{Latency: lat}, out.err // counted as throttled already
		}
		if isCtxErr(out.err) {
			// The caller left; the service didn't fail.
			return OpResult{Latency: lat}, out.err
		}
		if errors.Is(out.err, ErrNotFound) {
			// Absent key still cost a lookup; observe size 0, miss.
			est.ObserveRead(0, false)
		}
		ts.errors.Inc()
		return OpResult{Latency: lat}, out.err
	}
	est.ObserveRead(len(out.val), out.hit)
	charged := ru.ReadRU(len(out.val), boolTo01(out.hit))
	ts.success.Inc()
	ts.ruUsed.Add(charged)
	ts.latency.Observe(lat)
	if out.hit {
		ts.cacheHits.Inc()
	} else {
		ts.cacheMiss.Inc()
	}
	return OpResult{Value: out.val, CacheHit: out.hit, RU: charged, Latency: lat, ExpireAt: out.exp}, nil
}

func boolTo01(hit bool) float64 {
	if hit {
		return 1
	}
	return 0
}

// isCtxErr reports whether err is a context sentinel (including the
// shed error, which wraps context.DeadlineExceeded): the caller's
// budget ran out, as opposed to the node failing.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Put writes key=value with an optional TTL on the primary replica and
// replicates asynchronously. The zero epoch skips the stale-route
// check (trusted internal callers); proxies use PutAt with the epoch
// from their route cache.
func (n *Node) Put(ctx context.Context, pid partition.ID, key, value []byte, ttl time.Duration) (OpResult, error) {
	return n.write(ctx, pid, 0, key, value, ttl, false)
}

// PutAt is Put with the caller's route epoch: the write is fenced with
// ErrStaleEpoch when the epoch does not match the replica's, and with
// ErrNotPrimary when this replica no longer serves writes.
func (n *Node) PutAt(ctx context.Context, pid partition.ID, epoch uint64, key, value []byte, ttl time.Duration) (OpResult, error) {
	return n.write(ctx, pid, epoch, key, value, ttl, false)
}

// Delete removes key.
func (n *Node) Delete(ctx context.Context, pid partition.ID, key []byte) (OpResult, error) {
	return n.write(ctx, pid, 0, key, nil, 0, true)
}

// DeleteAt is Delete with the caller's route epoch (see PutAt).
func (n *Node) DeleteAt(ctx context.Context, pid partition.ID, epoch uint64, key []byte) (OpResult, error) {
	return n.write(ctx, pid, epoch, key, nil, 0, true)
}

func (n *Node) write(ctx context.Context, pid partition.ID, epoch uint64, key, value []byte, ttl time.Duration, del bool) (OpResult, error) {
	rep, err := n.getReplica(pid)
	if err != nil {
		return OpResult{}, err
	}
	// Fence before any accounting: a demoted primary must reject the
	// write outright so the proxy re-routes to the new primary.
	if err := rep.checkWrite(epoch); err != nil {
		return OpResult{}, err
	}
	ts, _ := n.tenantState(pid.Tenant)
	if err := ctx.Err(); err != nil {
		return OpResult{}, err
	}
	rep.recordAccess(key) // offered load heats the partition even if shed
	if err := n.admitCtx(ctx, ts); err != nil {
		return OpResult{}, err
	}
	cost := ru.WriteRU(len(value), n.cfg.Replicas)

	start := n.cfg.Clock.Now()
	ck := cacheKey(pid, key)
	var opErr error
	done := make(chan struct{})
	finish := func(err error) {
		opErr = err
		close(done)
	}
	var ioErr error
	var ioSeq uint64 // engine-assigned sequence = the write's replication position
	// See Get: a charge whose task never executes is returned.
	var quotaCharged bool
	task := &wfq.Task{
		Tenant:     pid.Tenant,
		Partition:  pid.String(),
		Class:      wfq.ClassFor(true, len(value)),
		RUCost:     cost,
		IOPSCost:   1,
		QuotaShare: n.quotaShare(rep),
		Ctx:        ctx,
		Abort: func(err error) {
			if quotaCharged {
				rep.limiter.Refund(cost)
			}
			finish(err)
		},
		CPUStage: func() bool {
			burn(n.cfg.Clock, n.cfg.Cost.CPUTime)
			return true // writes always reach the I/O layer (WAL)
		},
		IOStage: func() {
			burn(n.cfg.Clock, n.cfg.Cost.IOWriteTime)
			if del {
				// Deleting an absent key reports ErrNotFound and
				// writes no tombstone (matching the batched path and
				// Redis DEL counting). The probe is a real metadata
				// read; charge it as one.
				burn(n.cfg.Clock, n.cfg.Cost.IOReadTime)
				if _, err := rep.db.TTL(key); errors.Is(err, lavastore.ErrNotFound) {
					ioErr = ErrNotFound
				} else {
					ioSeq, ioErr = rep.db.DeleteSeq(key)
				}
				n.cache.Delete(ck)
			} else {
				ioSeq, ioErr = rep.db.PutSeq(key, value, ttl)
				// Write-through keeps the node cache coherent — except
				// for TTL-bearing values, which the SA-LRU cannot expire
				// and so must not hold (see Get).
				if ttl > 0 {
					n.cache.Delete(ck)
				} else {
					n.cache.Put(ck, value)
				}
			}
		},
	}
	task.Done = func() { finish(ioErr) }

	queued := n.admit.submit(func() {
		if err := ctx.Err(); err != nil {
			finish(err)
			return
		}
		burn(n.cfg.Clock, n.cfg.AdmitCost)
		if n.quotaOn.Load() {
			if !rep.limiter.Allow(cost) {
				burn(n.cfg.Clock, n.cfg.RejectCost)
				ts.throttled.Inc()
				finish(ErrThrottled)
				return
			}
			quotaCharged = true
		}
		if !n.sched.Submit(task) {
			if quotaCharged {
				rep.limiter.Refund(cost)
			}
			finish(errors.New("datanode: write rejected (ceiling or closed)"))
		}
	})
	if !queued {
		ts.errors.Inc()
		return OpResult{}, ErrOverloaded
	}
	<-done

	lat := n.cfg.Clock.Since(start)
	n.observeServiceTime(lat)
	if opErr != nil {
		if errors.Is(opErr, ErrThrottled) || isCtxErr(opErr) {
			return OpResult{Latency: lat}, opErr
		}
		ts.errors.Inc()
		return OpResult{Latency: lat}, opErr
	}
	// The engine sequence assigned under the commit lock IS the write's
	// replication position: followers apply at the same sequence, so
	// change-log offsets stay comparable across replicas and a resume
	// token survives promotion. (A position counter bumped out here
	// could order two concurrent commits differently from the engine.)
	rep.advancePos(ioSeq)
	n.replicator.Replicate(rep.id, key, value, ttl, del, ioSeq)
	ts.success.Inc()
	ts.ruUsed.Add(cost)
	ts.latency.Observe(lat)
	return OpResult{RU: cost, Latency: lat}, nil
}

// PutCond selects a conditional-write predicate (Redis SET NX/XX).
type PutCond int

// Conditional-write predicates.
const (
	// CondNone writes unconditionally.
	CondNone PutCond = iota
	// CondNX writes only when the key does not already exist.
	CondNX
	// CondXX writes only when the key already exists.
	CondXX
)

// PutOptions carries the typed per-op options of a conditional write.
type PutOptions struct {
	// TTL sets the new record's expiry (0 = none unless KeepTTL).
	TTL time.Duration
	// KeepTTL preserves the existing record's remaining TTL instead of
	// clearing it (Redis SET KEEPTTL). Ignored when TTL is set.
	KeepTTL bool
	// Cond gates the write on the key's current existence.
	Cond PutCond
	// ReturnOld fetches the key's previous value (Redis SET ... GET).
	ReturnOld bool
}

// PutResult reports one conditional write.
type PutResult struct {
	OpResult
	// Written reports whether the write was applied; false means the
	// NX/XX condition was not met (not an error).
	Written bool
	// Old is the key's previous value (populated only under ReturnOld).
	Old []byte
	// OldExists reports whether the key existed before the write.
	OldExists bool
	// Expiring reports whether the record now carries a TTL — caching
	// layers above must not hold expiring values.
	Expiring bool
}

// PutWith is the conditional form of PutAt: one read-modify-write
// through the primary's write pipeline — a single admission, one WFQ
// write task whose I/O stage probes the existing record, evaluates the
// NX/XX predicate, resolves KEEPTTL, and applies the write — then
// replicated like any other write. The probe and the write happen
// inside one I/O stage, so no other client write can interleave
// between them on this replica.
func (n *Node) PutWith(ctx context.Context, pid partition.ID, epoch uint64, key, value []byte, opts PutOptions) (PutResult, error) {
	rep, err := n.getReplica(pid)
	if err != nil {
		return PutResult{}, err
	}
	if err := rep.checkWrite(epoch); err != nil {
		return PutResult{}, err
	}
	ts, est := n.tenantState(pid.Tenant)
	if err := ctx.Err(); err != nil {
		return PutResult{}, err
	}
	rep.recordAccess(key) // offered load heats the partition even if shed
	if err := n.admitCtx(ctx, ts); err != nil {
		return PutResult{}, err
	}
	// Read-modify-write: the admission charge covers the probe read
	// plus the replicated write.
	cost := est.EstimateReadRU() + ru.WriteRU(len(value), n.cfg.Replicas)

	start := n.cfg.Clock.Now()
	ck := cacheKey(pid, key)
	var res PutResult
	var ioErr error
	var effTTL time.Duration
	var wroteSeq uint64
	probeLen := 0
	done := make(chan struct{})
	finish := func(err error) {
		ioErr = err
		close(done)
	}
	var stageErr error
	// See Get: a charge whose task never executes is returned.
	var quotaCharged bool
	task := &wfq.Task{
		Tenant:     pid.Tenant,
		Partition:  pid.String(),
		Class:      wfq.ClassFor(true, len(value)),
		RUCost:     cost,
		IOPSCost:   2, // probe read + write
		QuotaShare: n.quotaShare(rep),
		Ctx:        ctx,
		Abort: func(err error) {
			if quotaCharged {
				rep.limiter.Refund(cost)
			}
			finish(err)
		},
		CPUStage: func() bool {
			burn(n.cfg.Clock, n.cfg.Cost.CPUTime)
			return true
		},
		IOStage: func() {
			// The probe is a real record read; charge its I/O time.
			burn(n.cfg.Clock, n.cfg.Cost.IOReadTime)
			got, gerr := rep.db.Get(key)
			exists := gerr == nil
			if gerr != nil && !errors.Is(gerr, lavastore.ErrNotFound) {
				stageErr = gerr
				return
			}
			res.OldExists = exists
			probeLen = len(got.Value)
			if opts.ReturnOld && exists {
				res.Old = got.Value
			}
			if (opts.Cond == CondNX && exists) || (opts.Cond == CondXX && !exists) {
				return // condition not met: probe only, no write
			}
			ttl := opts.TTL
			if ttl == 0 && opts.KeepTTL && exists && got.ExpireAt != 0 {
				if remaining := time.Unix(got.ExpireAt, 0).Sub(n.cfg.Clock.Now()); remaining > 0 {
					ttl = remaining
				}
			}
			burn(n.cfg.Clock, n.cfg.Cost.IOWriteTime)
			if wroteSeq, stageErr = rep.db.PutSeq(key, value, ttl); stageErr != nil {
				return
			}
			res.Written = true
			res.Expiring = ttl > 0
			effTTL = ttl
			// Write-through for TTL-free values, invalidate otherwise
			// (the SA-LRU cannot expire entries; see Get).
			if ttl > 0 {
				n.cache.Delete(ck)
			} else {
				n.cache.Put(ck, value)
			}
		},
	}
	task.Done = func() { finish(stageErr) }

	queued := n.admit.submit(func() {
		if err := ctx.Err(); err != nil {
			finish(err)
			return
		}
		burn(n.cfg.Clock, n.cfg.AdmitCost)
		if n.quotaOn.Load() {
			if !rep.limiter.Allow(cost) {
				burn(n.cfg.Clock, n.cfg.RejectCost)
				ts.throttled.Inc()
				finish(ErrThrottled)
				return
			}
			quotaCharged = true
		}
		if !n.sched.Submit(task) {
			if quotaCharged {
				rep.limiter.Refund(cost)
			}
			finish(errors.New("datanode: write rejected (ceiling or closed)"))
		}
	})
	if !queued {
		ts.errors.Inc()
		return PutResult{}, ErrOverloaded
	}
	<-done

	lat := n.cfg.Clock.Since(start)
	n.observeServiceTime(lat)
	res.Latency = lat
	if ioErr != nil {
		if errors.Is(ioErr, ErrThrottled) || isCtxErr(ioErr) {
			return PutResult{OpResult: OpResult{Latency: lat}}, ioErr
		}
		ts.errors.Inc()
		return PutResult{OpResult: OpResult{Latency: lat}}, ioErr
	}
	est.ObserveRead(probeLen, false)
	charged := ru.ReadRU(probeLen, 0)
	if res.Written {
		charged += ru.WriteRU(len(value), n.cfg.Replicas)
		// Engine sequence as position: see write.
		rep.advancePos(wroteSeq)
		n.replicator.Replicate(rep.id, key, value, effTTL, false, wroteSeq)
	}
	res.RU = charged
	ts.success.Inc()
	ts.ruUsed.Add(charged)
	ts.latency.Observe(lat)
	return res, nil
}

// ApplyReplicated applies a replicated write on a follower replica,
// bypassing quota and WFQ (replication traffic is system traffic).
// Direct callers (preload, split rehash, replica copy) use this form;
// the replication fabric uses ApplyReplicatedAt so the follower's
// position tracks the primary's instead of a local count.
func (n *Node) ApplyReplicated(pid partition.ID, key, value []byte, ttl time.Duration, del bool) error {
	rep, err := n.getReplica(pid)
	if err != nil {
		return err
	}
	// Invalidate rather than populate: follower reads are rare next to
	// primary traffic, so write-through would fill the cache with
	// values that are seldom read while still risking staleness.
	n.cache.Delete(cacheKey(pid, key))
	var seq uint64
	var werr error
	if del {
		seq, werr = rep.db.DeleteSeq(key)
	} else {
		seq, werr = rep.db.PutSeq(key, value, ttl)
	}
	if werr == nil {
		rep.advancePos(seq)
	}
	return werr
}

// ApplyCopied applies one record of a replica-repair bulk copy at its
// SOURCE sequence number, leaving the replication position alone (the
// copy adopts the source's position wholesale once it completes — see
// CopyReplicaTo). Keeping source sequences keeps the destination's
// engine sequence at or below the primary's, so post-repair replicated
// applies are never mistaken for stale ones.
func (n *Node) ApplyCopied(pid partition.ID, seq uint64, key, value []byte, ttl time.Duration) error {
	rep, err := n.getReplica(pid)
	if err != nil {
		return err
	}
	n.cache.Delete(cacheKey(pid, key))
	return rep.db.ApplyAt(key, value, ttl, false, seq)
}

// WriteThrough applies a system write on a partition primary and hands
// it to the replication fabric, bypassing quota and WFQ. The split
// rehash uses it: migrated records and their source tombstones commit
// on the primary (taking an engine sequence) and reach followers
// through the same FIFO lanes as client writes — applying directly on
// followers would interleave differently per replica and misalign the
// change logs that resume tokens index into.
func (n *Node) WriteThrough(pid partition.ID, key, value []byte, ttl time.Duration, del bool) error {
	rep, err := n.getReplica(pid)
	if err != nil {
		return err
	}
	n.cache.Delete(cacheKey(pid, key))
	var seq uint64
	var werr error
	if del {
		seq, werr = rep.db.DeleteSeq(key)
	} else {
		seq, werr = rep.db.PutSeq(key, value, ttl)
	}
	if werr != nil {
		return werr
	}
	rep.advancePos(seq)
	n.replicator.Replicate(rep.id, key, value, ttl, del, seq)
	return nil
}

// ApplyReplicatedAt is ApplyReplicated for the replication fabric: pos
// is the sequence number the PRIMARY's engine committed this write at.
// The follower applies the record at that same sequence, so every
// replica's change log is offset-aligned and a subscriber's resume
// token stays valid across a promotion. pos 0 is the snapshot-copy
// escape hatch (CopyReplicaTo): the record takes a local sequence and
// the position counter is left for AdoptReplicationPosition — a bulk
// copy is state transfer, not history.
func (n *Node) ApplyReplicatedAt(pid partition.ID, pos uint64, key, value []byte, ttl time.Duration, del bool) error {
	rep, err := n.getReplica(pid)
	if err != nil {
		return err
	}
	n.cache.Delete(cacheKey(pid, key))
	if pos == 0 {
		if del {
			return rep.db.Delete(key)
		}
		return rep.db.Put(key, value, ttl)
	}
	if err := rep.db.ApplyAt(key, value, ttl, del, pos); err != nil {
		return err
	}
	rep.advancePos(pos)
	return nil
}

// ApplyReplicatedBatchAt is ApplyReplicatedBatch for the replication
// fabric (see ApplyReplicatedAt); pos is the primary's sequence after
// the batch's last op, and the batch occupies the contiguous range
// ending there on every replica.
func (n *Node) ApplyReplicatedBatchAt(pid partition.ID, pos uint64, ops []WriteOp) error {
	rep, err := n.getReplica(pid)
	if err != nil {
		return err
	}
	if err := rep.db.ApplyBatchAt(toBatchOps(ops), pos); err != nil {
		return err
	}
	n.invalidateBatch(pid, ops)
	rep.advancePos(pos)
	return nil
}

// ApplyReplicatedBatch applies a replicated sub-batch on a follower
// replica as one group commit, bypassing quota and WFQ.
func (n *Node) ApplyReplicatedBatch(pid partition.ID, ops []WriteOp) error {
	rep, err := n.getReplica(pid)
	if err != nil {
		return err
	}
	last, err := rep.db.WriteBatchSeq(toBatchOps(ops))
	if err != nil {
		return err
	}
	n.invalidateBatch(pid, ops)
	rep.advancePos(last)
	return nil
}

func toBatchOps(ops []WriteOp) []lavastore.BatchOp {
	batch := make([]lavastore.BatchOp, len(ops))
	for i, op := range ops {
		batch[i] = lavastore.BatchOp{Key: op.Key, Value: op.Value, TTL: op.TTL, Delete: op.Delete}
	}
	return batch
}

// invalidateBatch drops the touched cache entries (invalidate rather
// than populate: see ApplyReplicated).
func (n *Node) invalidateBatch(pid partition.ID, ops []WriteOp) {
	prefix := cacheKeyPrefix(pid)
	for _, op := range ops {
		n.cache.Delete(prefix + string(op.Key))
	}
}

// --- Hash (Redis hash) operations ---
//
// A hash is stored as a single encoded value under its key:
// count uvarint, then per field: flen uvarint | field | vlen uvarint | value.
// Complex-operation RU estimation decomposes HGetAll into HLen + scan
// (§4.1).

func encodeHash(m map[string][]byte) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(m)))
	for f, v := range m {
		buf = binary.AppendUvarint(buf, uint64(len(f)))
		buf = append(buf, f...)
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

func decodeHash(data []byte) (map[string][]byte, error) {
	m := map[string][]byte{}
	if len(data) == 0 {
		return m, nil
	}
	count, s := binary.Uvarint(data)
	if s <= 0 {
		return nil, fmt.Errorf("datanode: corrupt hash header")
	}
	data = data[s:]
	for i := uint64(0); i < count; i++ {
		flen, s := binary.Uvarint(data)
		if s <= 0 || uint64(len(data)) < uint64(s)+flen {
			return nil, fmt.Errorf("datanode: corrupt hash field")
		}
		f := string(data[s : s+int(flen)])
		data = data[s+int(flen):]
		vlen, s2 := binary.Uvarint(data)
		if s2 <= 0 || uint64(len(data)) < uint64(s2)+vlen {
			return nil, fmt.Errorf("datanode: corrupt hash value")
		}
		m[f] = append([]byte(nil), data[s2:s2+int(vlen)]...)
		data = data[s2+int(vlen):]
	}
	return m, nil
}

// FieldValue is one field/value pair of a multi-field hash write.
type FieldValue struct {
	Field string
	Value []byte
}

// HSet sets field=value in the hash at key, returning 1 if the field is
// new and 0 if it overwrote.
func (n *Node) HSet(ctx context.Context, pid partition.ID, key []byte, field string, value []byte) (int, error) {
	return n.HSetMulti(ctx, pid, key, []FieldValue{{Field: field, Value: value}})
}

// HSetMulti sets every field/value pair in the hash at key as ONE
// read-modify-write — one Get and one Put regardless of how many
// fields the command carries — returning how many fields were new.
// Duplicate fields apply left to right (the last value wins, counted
// once if the field was new).
func (n *Node) HSetMulti(ctx context.Context, pid partition.ID, key []byte, fvs []FieldValue) (int, error) {
	if len(fvs) == 0 {
		return 0, nil
	}
	res, err := n.Get(ctx, pid, key)
	m := map[string][]byte{}
	switch {
	case err == nil:
		if m, err = decodeHash(res.Value); err != nil {
			return 0, err
		}
	case errors.Is(err, ErrNotFound):
	default:
		return 0, err
	}
	added := 0
	for _, fv := range fvs {
		if _, existed := m[fv.Field]; !existed {
			added++
		}
		m[fv.Field] = fv.Value
	}
	if _, err := n.Put(ctx, pid, key, encodeHash(m), 0); err != nil {
		return 0, err
	}
	return added, nil
}

// HGet returns the value of field in the hash at key.
func (n *Node) HGet(ctx context.Context, pid partition.ID, key []byte, field string) ([]byte, error) {
	res, err := n.Get(ctx, pid, key)
	if err != nil {
		return nil, err
	}
	m, err := decodeHash(res.Value)
	if err != nil {
		return nil, err
	}
	v, ok := m[field]
	if !ok {
		return nil, ErrNotFound
	}
	return v, nil
}

// HLen returns the number of fields in the hash at key. The observed
// length feeds the complex-operation RU estimator.
func (n *Node) HLen(ctx context.Context, pid partition.ID, key []byte) (int, error) {
	res, err := n.Get(ctx, pid, key)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return 0, nil
		}
		return 0, err
	}
	m, err := decodeHash(res.Value)
	if err != nil {
		return 0, err
	}
	_, est := n.tenantState(pid.Tenant)
	est.ObserveCollectionLen(len(m))
	return len(m), nil
}

// HGetAll returns all fields and values of the hash at key.
func (n *Node) HGetAll(ctx context.Context, pid partition.ID, key []byte) (map[string][]byte, error) {
	res, err := n.Get(ctx, pid, key)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return map[string][]byte{}, nil
		}
		return nil, err
	}
	m, err := decodeHash(res.Value)
	if err != nil {
		return nil, err
	}
	_, est := n.tenantState(pid.Tenant)
	est.ObserveCollectionLen(len(m))
	return m, nil
}

// HDel removes fields from the hash at key, returning how many existed.
func (n *Node) HDel(ctx context.Context, pid partition.ID, key []byte, fields ...string) (int, error) {
	res, err := n.Get(ctx, pid, key)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return 0, nil
		}
		return 0, err
	}
	m, err := decodeHash(res.Value)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, f := range fields {
		if _, ok := m[f]; ok {
			delete(m, f)
			removed++
		}
	}
	if removed > 0 {
		if len(m) == 0 {
			_, err = n.Delete(ctx, pid, key)
		} else {
			_, err = n.Put(ctx, pid, key, encodeHash(m), 0)
		}
		if err != nil {
			return 0, err
		}
	}
	return removed, nil
}

// TTL returns the remaining time-to-live of key (lavastore.ErrNoTTL
// mapped to ttl=0, found=true for keys without expiry).
func (n *Node) TTL(ctx context.Context, pid partition.ID, key []byte) (time.Duration, bool, error) {
	rep, err := n.getReplica(pid)
	if err != nil {
		return 0, false, err
	}
	if err := ctx.Err(); err != nil {
		return 0, false, err
	}
	ttl, err := rep.db.TTL(key)
	switch {
	case err == nil:
		return ttl, true, nil
	case errors.Is(err, lavastore.ErrNoTTL):
		return 0, true, nil
	case errors.Is(err, lavastore.ErrNotFound):
		return 0, false, ErrNotFound
	default:
		return 0, false, err
	}
}

// Expire sets key's TTL, going through the full write pipeline so it
// is charged and replicated like any write.
func (n *Node) Expire(ctx context.Context, pid partition.ID, key []byte, ttl time.Duration) error {
	res, err := n.Get(ctx, pid, key)
	if err != nil {
		return err
	}
	_, err = n.Put(ctx, pid, key, res.Value, ttl)
	return err
}

// Persist removes key's TTL, reporting whether an expiry was actually
// removed. A key without a TTL is left untouched (no write, no
// replication); an absent key returns ErrNotFound. Like Expire and
// HSet this is a read-modify-write of two node ops, so a racing write
// between them can be overwritten; Get's ExpireAt supplies the expiry
// check without a separate TTL read.
func (n *Node) Persist(ctx context.Context, pid partition.ID, key []byte) (bool, error) {
	res, err := n.Get(ctx, pid, key)
	if err != nil {
		return false, err
	}
	if res.ExpireAt == 0 {
		return false, nil // exists but already persistent
	}
	if _, err := n.Put(ctx, pid, key, res.Value, 0); err != nil {
		return false, err
	}
	return true, nil
}
