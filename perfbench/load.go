package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"abase/internal/resp"
)

// keyspace holds a workload's key and field names, built once.
type keyspace struct {
	w      *workload
	str    [][]byte
	hash   [][]byte
	fields [][]string // [conn][i]
}

func newKeyspace(w *workload) *keyspace {
	ks := &keyspace{w: w, str: make([][]byte, w.strKeys), hash: make([][]byte, w.hashes)}
	for i := range ks.str {
		ks.str[i] = strKey(w, uint32(i))
	}
	for i := range ks.hash {
		ks.hash[i] = hashKey(uint32(i))
	}
	ks.fields = make([][]string, w.conns)
	for c := range ks.fields {
		for i := 0; i < w.fieldsPerConn; i++ {
			ks.fields[c] = append(ks.fields[c], fieldName(c, uint8(i)))
		}
	}
	return ks
}

// books is the client-side record of acknowledged writes that reply
// checks and the read-back audit compare against. A connection writes
// only its own slots; strAcked is atomic because the other
// connection's GET checks read it.
type books struct {
	ks       *keyspace
	conns    int
	t0       time.Time
	strAcked []atomic.Uint64 // [key*conns+writer] seq of the last acked SET
	strSent  []int64         // when that SET was written (ns since t0)
	strAckAt []int64         // when its reply was read
	hAcked   []uint64        // [(hash*conns+conn)*fieldsPerConn+field] last acked HSET seq
}

func newBooks(ks *keyspace) *books {
	w := ks.w
	return &books{
		ks: ks, conns: w.conns, t0: time.Now(),
		strAcked: make([]atomic.Uint64, w.strKeys*w.conns),
		strSent:  make([]int64, w.strKeys*w.conns),
		strAckAt: make([]int64, w.strKeys*w.conns),
		hAcked:   make([]uint64, w.hashes*w.conns*w.fieldsPerConn),
	}
}

func (b *books) hslot(hash uint32, conn int, field uint8) int {
	return (int(hash)*b.conns+conn)*b.ks.w.fieldsPerConn + int(field)
}

// loadResult tallies one phase of closed-loop load.
type loadResult struct {
	attempted, failed int64
	elapsed           time.Duration
	lat               [numOps][]int64 // ns per command, measured phases only
	count             [numOps]int64
	staleHGets        int64 // HGETs that saw an older value of the caller's own acked field
	userBytes         int64 // key+value bytes of acknowledged writes
	firstErr          string
}

func (r *loadResult) fail(format string, args ...any) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
}

func (r *loadResult) merge(o *loadResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	for op := range r.lat {
		r.lat[op] = append(r.lat[op], o.lat[op]...)
		r.count[op] += o.count[op]
	}
	r.staleHGets += o.staleHGets
	r.userBytes += o.userBytes
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
}

func (r *loadResult) ops() int64 {
	var n int64
	for _, c := range r.count {
		n += c
	}
	return n
}

func (r *loadResult) opsPerSec() float64 { return float64(r.ops()) / r.elapsed.Seconds() }

// worker drives one connection's closed loop. Its generator and
// command position persist across phases, so a run is one stream.
type worker struct {
	id     int
	w      *workload
	b      *books
	c      *conn
	gen    *generator
	pos    uint64
	cursor []byte
	batch  []pending
}

// pending is a sent command awaiting its reply, with what the books
// said when it was sent.
type pending struct {
	cmd   command
	seq   uint64
	size  int
	snap  [2]uint64
	start time.Time
}

func newWorker(id int, w *workload, b *books, c *conn, seed uint64) *worker {
	return &worker{id: id, w: w, b: b, c: c, gen: newGenerator(w, seed, id), cursor: []byte("0")}
}

// runPhase runs every worker closed-loop for dur. Latencies are kept
// only when measure is set.
func runPhase(workers []*worker, dur time.Duration, measure bool) (*loadResult, error) {
	start := time.Now()
	until := start.Add(dur)
	results := make([]*loadResult, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, wk := range workers {
		results[i] = &loadResult{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = wk.run(until, results[i], measure)
		}()
	}
	wg.Wait()
	total := &loadResult{elapsed: time.Since(start)}
	for i, r := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		total.merge(r)
	}
	return total, nil
}

func (wk *worker) run(until time.Time, res *loadResult, measure bool) error {
	for time.Now().Before(until) {
		wk.batch = wk.batch[:0]
		for i := 0; i < wk.w.depth; i++ {
			wk.batch = append(wk.batch, wk.send(wk.gen.next()))
		}
		start := time.Now()
		if err := wk.c.flush(); err != nil {
			return fmt.Errorf("conn %d: write: %w", wk.id, err)
		}
		for i := range wk.batch {
			v, err := wk.c.read()
			if err != nil {
				return fmt.Errorf("conn %d: read: %w", wk.id, err)
			}
			end := time.Now()
			p := &wk.batch[i]
			p.start = start
			res.attempted++
			if !wk.check(p, v, end, res) {
				continue
			}
			res.count[p.cmd.op]++
			if measure {
				res.lat[p.cmd.op] = append(res.lat[p.cmd.op], int64(end.Sub(start)))
			}
		}
	}
	return nil
}

// send buffers one generated command and records what its reply must
// satisfy.
func (wk *worker) send(cmd command) pending {
	wk.pos++
	p := pending{cmd: cmd, seq: wk.pos}
	ks := wk.b.ks
	switch cmd.op {
	case opGet:
		for w := 0; w < wk.b.conns; w++ {
			p.snap[w] = wk.b.strAcked[int(cmd.key)*wk.b.conns+w].Load()
		}
		wk.c.send([]byte("GET"), ks.str[cmd.key])
	case opSet:
		key := ks.str[cmd.key]
		p.size = len(key) + wk.w.valueSize
		wk.c.send([]byte("SET"), key, makeValue(key, "", byte('0'+wk.id), p.seq, wk.w.valueSize))
	case opHSet:
		key, field := ks.hash[cmd.key], ks.fields[wk.id][cmd.field]
		p.size = len(field) + wk.w.fieldSize
		wk.c.send([]byte("HSET"), key, []byte(field), makeValue(key, field, byte('0'+wk.id), p.seq, wk.w.fieldSize))
	case opHGet:
		p.snap[0] = wk.b.hAcked[wk.b.hslot(cmd.key, wk.id, cmd.field)]
		wk.c.send([]byte("HGET"), ks.hash[cmd.key], []byte(ks.fields[wk.id][cmd.field]))
	case opScan:
		wk.c.send([]byte("SCAN"), wk.cursor, []byte("COUNT"), []byte(strconv.Itoa(scanCount)))
	}
	return p
}

// check validates a reply against its command and the books, and
// applies an acknowledged write to the books. A bad reply is counted
// as failed.
func (wk *worker) check(p *pending, v resp.Value, end time.Time, res *loadResult) bool {
	b, ks, cmd := wk.b, wk.b.ks, p.cmd
	if v.IsError() {
		res.fail("%s: error reply %q", cmd.op, v.Text())
		return false
	}
	switch cmd.op {
	case opGet:
		if v.Kind != resp.BulkString || v.Null {
			res.fail("GET %s: want a value, got %q", ks.str[cmd.key], v.Text())
			return false
		}
		tag, ok := parseValue(v.Str, ks.str[cmd.key], "", wk.w.valueSize)
		if !ok {
			res.fail("GET %s: malformed value", ks.str[cmd.key])
			return false
		}
		if reason := staleString(tag, p.snap[:b.conns]); reason != "" {
			res.fail("GET %s: %s", ks.str[cmd.key], reason)
			return false
		}
	case opSet:
		if v.Kind != resp.SimpleString || v.Text() != "OK" {
			res.fail("SET: want OK, got %q", v.Text())
			return false
		}
		slot := int(cmd.key)*b.conns + wk.id
		b.strAcked[slot].Store(p.seq)
		b.strSent[slot] = int64(p.start.Sub(b.t0))
		b.strAckAt[slot] = int64(end.Sub(b.t0))
		res.userBytes += int64(p.size)
	case opHSet:
		if v.Kind != resp.Integer || (v.Int != 0 && v.Int != 1) {
			res.fail("HSET: want 0 or 1, got %q", v.Text())
			return false
		}
		b.hAcked[b.hslot(cmd.key, wk.id, cmd.field)] = p.seq
		res.userBytes += int64(p.size)
	case opHGet:
		if v.Kind != resp.BulkString {
			res.fail("HGET: want a bulk reply, got %q", v.Text())
			return false
		}
		acked := p.snap[0]
		if v.Null {
			if acked > 0 {
				res.staleHGets++
			}
			break
		}
		key, field := ks.hash[cmd.key], ks.fields[wk.id][cmd.field]
		tag, ok := parseValue(v.Str, key, field, wk.w.fieldSize)
		if !ok || tag.writer != byte('0'+wk.id) || tag.seq >= p.seq {
			res.fail("HGET %s %s: malformed or unwritten value", key, field)
			return false
		}
		if tag.seq < acked {
			res.staleHGets++
		}
	case opScan:
		next, ok := wk.checkScan(v)
		if !ok {
			res.fail("SCAN: malformed page %q", v.Text())
			return false
		}
		wk.cursor = next
	}
	return true
}

// staleString reports why a GET's value is older than a write the
// caller had already seen acknowledged, or "" when it is not.
func staleString(tag valueTag, snap []uint64) string {
	if tag.writer == loaderWriter {
		for w, s := range snap {
			if s > 0 {
				return fmt.Sprintf("bulk-load value after writer %d's acked write %d", w, s)
			}
		}
		return ""
	}
	w := int(tag.writer - '0')
	if w < 0 || w >= len(snap) {
		return fmt.Sprintf("unknown writer %q", tag.writer)
	}
	if tag.seq < snap[w] {
		return fmt.Sprintf("writer %d's value %d after its acked write %d", w, tag.seq, snap[w])
	}
	return ""
}

// checkScan validates a SCAN reply: a cursor and at most COUNT keys,
// each a key of the workload's string keyspace.
func (wk *worker) checkScan(v resp.Value) ([]byte, bool) {
	if v.Kind != resp.Array || len(v.Array) != 2 || v.Array[0].Kind != resp.BulkString ||
		v.Array[1].Kind != resp.Array || len(v.Array[1].Array) > scanCount {
		return nil, false
	}
	cursor := v.Array[0].Str
	if !isDecimal(cursor) {
		return nil, false
	}
	for _, k := range v.Array[1].Array {
		if _, ok := wk.b.strIndex(k.Str); k.Kind != resp.BulkString || !ok {
			return nil, false
		}
	}
	return bytes.Clone(cursor), true
}

func isDecimal(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for _, c := range b {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}
