package datanode

import (
	"context"
	"errors"
	"math/bits"
	"sync"
	"time"

	"abase/internal/partition"
	"abase/internal/ru"
	"abase/internal/wfq"
)

// Every client operation flows through one pipeline (§4.2, Figure 2).
// open is the front door: replica lookup, the write fence, the caller's
// context, offered-load heat and the deadline shed. exec then takes ONE
// request-queue slot for the whole request and, per partition stage,
// charges the partition quota, runs the stage through the dual-layer
// WFQ, and settles it: refunds, the throttled/ctx/other error split,
// the service-time estimate and the tenant stats live only there.
// Operations differ only in the stage they build.

// stage is one partition's share of a request.
type stage struct {
	rep *replica
	ts  *tenantStats
	est *ru.Estimator

	// Supplied by the operation: the WFQ class, the RU admission
	// estimate charged to the partition quota, the I/O-layer cost, and
	// the bodies. cpu runs after the CPU-stage burn and returns false
	// when the SA-LRU resolved the stage (nil proceeds to I/O). io
	// returns the simulated I/O time it accrued, which is burned after
	// it returns — so never while a key stripe is held.
	class wfq.Class
	cost  float64
	iops  float64
	cpu   func() bool
	io    func() time.Duration

	// Outcome, written by the bodies. err is a stage-level failure; the
	// tallies count only when it is nil. repl holds the committed ops
	// to replicate at position pos.
	vals                     []BatchValue
	err                      error
	ru                       float64
	ok, failed, hits, misses int64
	repl                     []WriteOp
	pos                      uint64

	charged bool // the partition quota admitted cost (refunded if the task never runs)
	task    wfq.Task
}

// errSchedulerClosed resolves a stage the WFQ refused while the node
// shuts down.
var errSchedulerClosed = errors.New("datanode: scheduler closed")

// open runs the front door for one partition stage. write fences the
// stage: only the current primary, at the caller's epoch (0 skips the
// epoch check), accepts it. touch records the offered load.
func (n *Node) open(ctx context.Context, pid partition.ID, write bool, epoch uint64, touch func(*replica)) (*stage, error) {
	rep, err := n.getReplica(pid)
	if err != nil {
		return nil, err
	}
	// Fence before any accounting: a demoted primary must reject the
	// write outright so the proxy re-routes to the new primary.
	if write {
		if err := rep.checkWrite(epoch); err != nil {
			return nil, err
		}
	}
	ts, est := n.tenantState(pid.Tenant)
	if err := ctx.Err(); err != nil {
		return nil, err // the caller is gone: not offered load
	}
	// Heat is recorded at arrival (before admission — including the
	// deadline shed below) so the control plane sees offered load: a
	// partition shedding or throttling its burst away is exactly the
	// one that needs a split.
	touch(rep)
	if err := n.admitCtx(ctx, ts); err != nil {
		return nil, err
	}
	return &stage{rep: rep, ts: ts, est: est}, nil
}

// exec runs stages as one request and returns its latency. ctx bounds
// it end to end: a cancel while the request waits in the admission
// queue or a WFQ aborts it at the next dequeue point without executing.
func (n *Node) exec(ctx context.Context, stages ...*stage) time.Duration {
	start := n.cfg.Clock.Now()
	var wg sync.WaitGroup
	wg.Add(len(stages))
	// drop resolves a stage that will not run. Its quota charge, if
	// taken, goes back: the tenant never received the service.
	drop := func(s *stage, err error) {
		if s.charged {
			s.rep.limiter.Refund(s.cost)
		}
		s.err = err
		wg.Done()
	}
	for _, s := range stages {
		pid := s.rep.id.Partition
		s.task = wfq.Task{
			Tenant:     pid.Tenant,
			Partition:  pid.String(),
			Class:      s.class,
			RUCost:     s.cost,
			IOPSCost:   s.iops,
			QuotaShare: n.quotaShare(s.rep),
			Ctx:        ctx,
			CPUStage: func() bool {
				burn(n.cfg.Clock, n.cfg.Cost.CPUTime)
				return s.cpu == nil || s.cpu()
			},
			IOStage: func() { burn(n.cfg.Clock, s.io()) },
			Done:    wg.Done,
			Abort:   func(err error) { drop(s, err) },
		}
	}
	// Request-queue stage: quota filtering happens here, so a flood of
	// over-quota traffic occupies the queue workers (Figure 6).
	queued := n.admit.submit(func() {
		// A request canceled while queued aborts before the worker
		// spends admit cost or quota on it.
		if err := ctx.Err(); err != nil {
			for _, s := range stages {
				drop(s, err)
			}
			return
		}
		burn(n.cfg.Clock, n.cfg.AdmitCost)
		for _, s := range stages {
			if n.quotaOn.Load() {
				if !s.rep.limiter.Allow(s.cost) {
					burn(n.cfg.Clock, n.cfg.RejectCost)
					s.ts.throttled.Inc()
					drop(s, ErrThrottled)
					continue
				}
				s.charged = true
			}
			if !n.sched.Submit(&s.task) {
				drop(s, errSchedulerClosed)
			}
		}
	})
	if !queued {
		for _, s := range stages {
			drop(s, ErrOverloaded)
		}
	}
	wg.Wait()

	lat := n.cfg.Clock.Since(start)
	if queued {
		n.observeServiceTime(lat)
	}
	for _, s := range stages {
		switch {
		case s.err == nil:
			s.ts.success.Add(s.ok)
			s.ts.errors.Add(s.failed)
			s.ts.cacheHits.Add(s.hits)
			s.ts.cacheMiss.Add(s.misses)
			s.ts.ruUsed.Add(s.ru)
			if s.ok > 0 {
				s.ts.latency.Observe(lat)
			}
			if len(s.repl) > 0 {
				n.replicator.Replicate(s.rep.id, s.repl, s.pos)
			}
		case errors.Is(s.err, ErrThrottled) || isCtxErr(s.err):
			// Throttles were counted at rejection; a caller that left
			// is not a node failure.
		default:
			s.ts.errors.Inc()
		}
	}
	return lat
}

// isCtxErr reports whether err is a context sentinel (including the
// shed error, which wraps context.DeadlineExceeded): the caller's
// budget ran out, as opposed to the node failing.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// keyStripes is the number of per-replica key locks. Every primary
// commit holds the stripes of the keys it writes from its probe through
// the engine commit and the SA-LRU update, so a read-modify-write sees
// no write interleave and write-through lands in commit order.
const keyStripes = 64

// stripeSet is a set of a replica's key stripes, one bit each.
type stripeSet uint64

// stripeOf returns the stripe of key (FNV-1a).
func stripeOf(key []byte) stripeSet {
	h := uint32(2166136261)
	for _, c := range key {
		h ^= uint32(c)
		h *= 16777619
	}
	return 1 << (h % keyStripes)
}

// lock takes the stripes of s in ascending order, the one order every
// holder uses, so two multi-key commits cannot deadlock.
func (r *replica) lock(s stripeSet) {
	for m := uint64(s); m != 0; m &= m - 1 {
		r.stripes[bits.TrailingZeros64(m)].Lock()
	}
}

func (r *replica) unlock(s stripeSet) {
	for m := uint64(s); m != 0; m &= m - 1 {
		r.stripes[bits.TrailingZeros64(m)].Unlock()
	}
}

// commit writes ops to rep's engine — at the primary-assigned position
// pos when it is non-zero (a replicated apply), else at fresh local
// sequences — and only then updates the SA-LRU: write-through of
// TTL-free puts when through is set, invalidation otherwise. Touching
// the cache after the commit matters: a read that took its fill ticket
// before this point and read the engine before the commit has its fill
// dropped, where an invalidation ahead of the commit could let it
// install the old value. It returns the last sequence written and
// advances the replication position to it. Primary callers hold the
// ops' key stripes.
func (n *Node) commit(rep *replica, ops []WriteOp, pos uint64, through bool) (uint64, error) {
	var err error
	switch {
	case pos != 0:
		err = rep.db.ApplyBatchAt(toBatchOps(ops), pos)
	case len(ops) > 1:
		pos, err = rep.db.WriteBatchSeq(toBatchOps(ops))
	case ops[0].Delete:
		pos, err = rep.db.DeleteSeq(ops[0].Key)
	default:
		pos, err = rep.db.PutSeq(ops[0].Key, ops[0].Value, ops[0].TTL)
	}
	if err != nil {
		return 0, err
	}
	if n.afterCommit != nil {
		n.afterCommit()
	}
	prefix := cacheKeyPrefix(rep.id.Partition)
	for _, op := range ops {
		// The SA-LRU has no per-entry expiry, so TTL-bearing values stay
		// uncached (see Node.Get).
		if through && !op.Delete && op.TTL <= 0 {
			n.cache.Put(prefix+string(op.Key), op.Value)
		} else {
			n.cache.Delete(prefix + string(op.Key))
		}
	}
	rep.advancePos(pos)
	return pos, nil
}
