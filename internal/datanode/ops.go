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

// Get reads key from the hosted replica of pid through the full
// isolation pipeline, as a one-key MultiGet. ctx bounds the request
// end to end: a context that is already done (or whose deadline cannot
// be met by the estimated queue wait) fails fast before any admission,
// and a cancel while the request waits in the admission queue or a WFQ
// aborts it at the next dequeue point without executing.
func (n *Node) Get(ctx context.Context, pid partition.ID, key []byte) (OpResult, error) {
	res := n.MultiGet(ctx, []GetBatch{{PID: pid, Keys: [][]byte{key}}})[0]
	if res.Err != nil {
		return OpResult{Latency: res.Latency}, res.Err
	}
	v := res.Values[0]
	return OpResult{Value: v.Value, CacheHit: v.CacheHit, RU: res.RU, Latency: res.Latency, ExpireAt: v.ExpireAt}, v.Err
}

// Put writes key=value with an optional TTL on the primary replica and
// replicates asynchronously. The zero epoch skips the stale-route
// check (trusted internal callers); proxies use PutAt with the epoch
// from their route cache.
func (n *Node) Put(ctx context.Context, pid partition.ID, key, value []byte, ttl time.Duration) (OpResult, error) {
	return n.write(ctx, pid, 0, WriteOp{Key: key, Value: value, TTL: ttl})
}

// PutAt is Put with the caller's route epoch: the write is fenced with
// ErrStaleEpoch when the epoch does not match the replica's, and with
// ErrNotPrimary when this replica no longer serves writes.
func (n *Node) PutAt(ctx context.Context, pid partition.ID, epoch uint64, key, value []byte, ttl time.Duration) (OpResult, error) {
	return n.write(ctx, pid, epoch, WriteOp{Key: key, Value: value, TTL: ttl})
}

// Delete removes key.
func (n *Node) Delete(ctx context.Context, pid partition.ID, key []byte) (OpResult, error) {
	return n.write(ctx, pid, 0, WriteOp{Key: key, Delete: true})
}

// DeleteAt is Delete with the caller's route epoch (see PutAt).
func (n *Node) DeleteAt(ctx context.Context, pid partition.ID, epoch uint64, key []byte) (OpResult, error) {
	return n.write(ctx, pid, epoch, WriteOp{Key: key, Delete: true})
}

// write runs one blind write as a one-op MultiWrite.
func (n *Node) write(ctx context.Context, pid partition.ID, epoch uint64, op WriteOp) (OpResult, error) {
	res := n.MultiWrite(ctx, []PutBatch{{PID: pid, Ops: []WriteOp{op}, Epoch: epoch}})[0]
	if res.Err == nil {
		res.Err = res.Values[0].Err
	}
	return OpResult{RU: res.RU, Latency: res.Latency}, res.Err
}

// Record is a key's current state as an Update sees it.
type Record struct {
	Value []byte
	// ExpireAt is the record's TTL deadline (Unix seconds, 0 = none).
	ExpireAt int64
	Exists   bool
}

// Update is the node's read-modify-write primitive: one admission and
// one WFQ write task whose I/O stage probes key, calls fn with the
// current record, and applies the write fn returns (its Key is
// ignored; nil writes nothing; an error fails the op unwritten). The
// write replicates like any other. The key's stripe is held from the
// probe through fn, the engine commit and the SA-LRU update, so no
// other client write to the key — SET, batch or RMW — lands in
// between. fn runs under that lock: it must be quick and must not call
// back into the node.
func (n *Node) Update(ctx context.Context, pid partition.ID, epoch uint64, key []byte, fn func(cur Record) (*WriteOp, error)) (OpResult, error) {
	s, err := n.open(ctx, pid, true, epoch, func(r *replica) { r.recordAccess(key) })
	if err != nil {
		return OpResult{}, err
	}
	// The admission charge covers the probe read plus a replicated
	// write of the expected value size.
	size := int(s.est.ExpectedReadSize())
	s.class = wfq.ClassFor(true, size)
	s.cost = s.est.EstimateReadRU() + ru.WriteRU(size, n.cfg.Replicas)
	s.iops = 2 // probe read + write
	s.io = func() time.Duration { return n.update(s, key, fn) }
	lat := n.exec(ctx, s)
	if s.err != nil {
		return OpResult{Latency: lat}, s.err
	}
	return OpResult{RU: s.ru, Latency: lat}, nil
}

// update is Update's I/O-stage body.
func (n *Node) update(s *stage, key []byte, fn func(Record) (*WriteOp, error)) (d time.Duration) {
	rep := s.rep
	held := stripeOf(key)
	rep.lock(held)
	defer rep.unlock(held)
	// The SA-LRU holds only TTL-free values, and under the stripe it
	// cannot lag the engine, so a hit answers the probe without I/O.
	var cur Record
	if v, ok := n.cache.Get(cacheKey(rep.id.Partition, key)); ok {
		cur = Record{Value: v, Exists: true}
		s.hits++
	} else {
		got, err := rep.db.Get(key)
		d = time.Duration(max(got.IOReads, 1)) * n.cfg.Cost.IOReadTime
		switch {
		case err == nil:
			cur = Record{Value: got.Value, ExpireAt: got.ExpireAt, Exists: true}
			s.ru = ru.ReadRU(len(got.Value), 0)
			s.misses++
		case !errors.Is(err, lavastore.ErrNotFound):
			s.err = err
			return d
		}
	}
	s.est.ObserveRead(len(cur.Value), s.hits > 0)
	op, err := fn(cur)
	if err != nil {
		s.err = err
		return d
	}
	s.ok = 1
	if op == nil {
		return d
	}
	op.Key = key
	ops := []WriteOp{*op}
	pos, err := n.commit(rep, ops, 0, true)
	if err != nil {
		s.err = err
		return d
	}
	s.ru += ru.WriteRU(op.size(), n.cfg.Replicas)
	s.repl, s.pos = ops, pos
	return d + n.cfg.Cost.IOWriteTime
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

// PutWith is the conditional form of PutAt, one Update: it evaluates
// the NX/XX predicate against the current record, resolves KEEPTTL,
// and writes — atomically with respect to every other write to key.
func (n *Node) PutWith(ctx context.Context, pid partition.ID, epoch uint64, key, value []byte, opts PutOptions) (PutResult, error) {
	var res PutResult
	r, err := n.Update(ctx, pid, epoch, key, func(cur Record) (*WriteOp, error) {
		res.OldExists = cur.Exists
		if opts.ReturnOld && cur.Exists {
			res.Old = cur.Value
		}
		if (opts.Cond == CondNX && cur.Exists) || (opts.Cond == CondXX && !cur.Exists) {
			return nil, nil // condition not met: probe only, no write
		}
		ttl := opts.TTL
		if ttl == 0 && opts.KeepTTL && cur.ExpireAt != 0 {
			if remaining := time.Unix(cur.ExpireAt, 0).Sub(n.cfg.Clock.Now()); remaining > 0 {
				ttl = remaining
			}
		}
		res.Written, res.Expiring = true, ttl > 0
		return &WriteOp{Value: value, TTL: ttl}, nil
	})
	if err != nil {
		return PutResult{OpResult: r}, err
	}
	res.OpResult = r
	return res, nil
}

// ApplyReplicated applies a replicated batch on a follower replica,
// bypassing quota and WFQ (replication traffic is system traffic). pos
// is the sequence the PRIMARY's engine committed the batch's last op
// at; the ops take the contiguous range ending there on every replica,
// so change logs stay offset-aligned and a subscriber's resume token
// survives a promotion. pos 0 applies at local sequences — the direct
// load form (experiment preloads). A single write is a batch of one.
// The cache is invalidated rather than populated: follower reads are
// rare next to primary traffic, so write-through would fill it with
// values that are seldom read.
func (n *Node) ApplyReplicated(pid partition.ID, pos uint64, ops []WriteOp) error {
	rep, err := n.getReplica(pid)
	if err != nil || len(ops) == 0 {
		return err
	}
	_, err = n.commit(rep, ops, pos, false)
	return err
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
	if err := rep.db.ApplyAt(key, value, ttl, false, seq); err != nil {
		return err
	}
	if n.afterCommit != nil {
		n.afterCommit()
	}
	n.cache.Delete(cacheKey(pid, key)) // after the commit: see commit
	return nil
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
	ops := []WriteOp{{Key: key, Value: value, TTL: ttl, Delete: del}}
	held := stripeOf(key)
	rep.lock(held)
	pos, err := n.commit(rep, ops, 0, false)
	rep.unlock(held)
	if err != nil {
		return err
	}
	n.replicator.Replicate(rep.id, ops, pos)
	return nil
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
// atomic read-modify-write (one Update, however many fields the
// command carries), returning how many fields were new. Duplicate
// fields apply left to right (the last value wins, counted once if the
// field was new).
func (n *Node) HSetMulti(ctx context.Context, pid partition.ID, key []byte, fvs []FieldValue) (int, error) {
	if len(fvs) == 0 {
		return 0, nil
	}
	added := 0
	_, err := n.Update(ctx, pid, 0, key, func(cur Record) (*WriteOp, error) {
		m, err := decodeHash(cur.Value)
		if err != nil {
			return nil, err
		}
		for _, fv := range fvs {
			if _, existed := m[fv.Field]; !existed {
				added++
			}
			m[fv.Field] = fv.Value
		}
		return &WriteOp{Value: encodeHash(m)}, nil
	})
	if err != nil {
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

// HDel removes fields from the hash at key as one atomic
// read-modify-write, returning how many existed. Removing the last
// field deletes the key.
func (n *Node) HDel(ctx context.Context, pid partition.ID, key []byte, fields ...string) (int, error) {
	removed := 0
	_, err := n.Update(ctx, pid, 0, key, func(cur Record) (*WriteOp, error) {
		m, err := decodeHash(cur.Value)
		if err != nil {
			return nil, err
		}
		for _, f := range fields {
			if _, ok := m[f]; ok {
				delete(m, f)
				removed++
			}
		}
		switch {
		case removed == 0:
			return nil, nil
		case len(m) == 0:
			return &WriteOp{Delete: true}, nil
		}
		return &WriteOp{Value: encodeHash(m)}, nil
	})
	if err != nil {
		return 0, err
	}
	return removed, nil
}

// TTL returns the remaining time-to-live of key (ttl=0, found=true for
// keys without expiry) through the pipeline, as a one-key
// MultiContains: it is charged the metadata lookup it performs.
func (n *Node) TTL(ctx context.Context, pid partition.ID, key []byte) (time.Duration, bool, error) {
	res := n.MultiContains(ctx, []GetBatch{{PID: pid, Keys: [][]byte{key}}})[0]
	if res.Err == nil {
		res.Err = res.Values[0].Err
	}
	if res.Err != nil {
		return 0, false, res.Err
	}
	exp := res.Values[0].ExpireAt
	if exp == 0 {
		return 0, true, nil
	}
	ttl := time.Unix(exp, 0).Sub(n.cfg.Clock.Now())
	if ttl <= 0 {
		return 0, false, ErrNotFound // lapsed since the lookup
	}
	return ttl, true, nil
}

// Expire sets key's TTL as one atomic read-modify-write, charged and
// replicated like any write. An absent key returns ErrNotFound.
func (n *Node) Expire(ctx context.Context, pid partition.ID, key []byte, ttl time.Duration) error {
	_, err := n.Update(ctx, pid, 0, key, func(cur Record) (*WriteOp, error) {
		if !cur.Exists {
			return nil, ErrNotFound
		}
		return &WriteOp{Value: cur.Value, TTL: ttl}, nil
	})
	return err
}

// Persist removes key's TTL as one atomic read-modify-write, reporting
// whether an expiry was actually removed. A key without a TTL is left
// untouched (no write, no replication); an absent key returns
// ErrNotFound.
func (n *Node) Persist(ctx context.Context, pid partition.ID, key []byte) (bool, error) {
	removed := false
	_, err := n.Update(ctx, pid, 0, key, func(cur Record) (*WriteOp, error) {
		switch {
		case !cur.Exists:
			return nil, ErrNotFound
		case cur.ExpireAt == 0:
			return nil, nil // exists but already persistent
		}
		removed = true
		return &WriteOp{Value: cur.Value}, nil
	})
	return removed && err == nil, err
}
