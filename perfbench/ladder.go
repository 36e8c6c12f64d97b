package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"abase"
	"abase/internal/datanode"
	"abase/internal/lavastore"
	"abase/internal/partition"
	"abase/internal/proxy"
	"abase/internal/resp"
)

// ladderOps is how many commands of the stream each rung replays.
const ladderOps = 3000

// The rungs, top down. Each replays the same stream prefix at one
// layer's public entry point.
const (
	rungResp = iota
	rungAbase
	rungProxy
	rungNode
	rungEngine
	numRungs
)

var rungNames = [numRungs]string{"resp", "abase", "proxy", "datanode", "lavastore"}

// rungOps names the ops each rung reports. The engine has no hash
// commands: an HSET reaches it as a put.
func rungOps(rung int) []string {
	if rung == rungEngine {
		return []string{"get", "put", "scan"}
	}
	return []string{"get", "set", "hset", "scan"}
}

// opBelow names the op one rung down that a rung's op calls into.
func opBelow(rung int, op string) string {
	if rung+1 == rungEngine && (op == "set" || op == "hset") {
		return "put"
	}
	return op
}

// cache outcomes of one call.
const (
	outcomeNone = iota
	outcomeHit
	outcomeMiss
)

// rungCaller issues one command at one layer. prepare does the untimed
// work (route lookup, argument and value building) and reports the op
// name, or false when the rung has no counterpart for the command;
// call is exactly the layer's entry point and is what the span times;
// finish validates the result afterwards and reports a cache outcome.
type rungCaller interface {
	prepare(cmd command, seq uint64) (op string, ok bool)
	call() error
	finish() (outcome int, err error)
}

// span is one timed call: the rung and op, the command's position in
// the stream (shared across rungs), and its start and end.
type span struct {
	rung       uint8
	op         string
	req        uint32
	start, end time.Time
}

type opStats struct {
	ns        []int64
	allocs    uint64
	hit, miss []int64
}

// ladder holds every rung's measurements.
type ladder struct {
	stats  map[string]*opStats // "<rung>.<op>"
	c2     [numRungs]float64
	spans  []span
	failed int64
	calls  int64
	first  string
	engine *lavastore.DB
	final  lavastore.Stats // the engine DB's stats after the ladder
	strIn0 []bool          // string keys the engine DB holds
	hIn0   []bool          // hash keys routed to the same partition
	ops    atomic.Int64    // ops applied to the engine DB, load included
	gets   atomic.Int64    // engine Gets
}

func (l *ladder) opStats(rung int, op string) *opStats {
	k := rungNames[rung] + "." + op
	s := l.stats[k]
	if s == nil {
		s = &opStats{}
		l.stats[k] = s
	}
	return s
}

func (l *ladder) fail(err error) {
	l.failed++
	if l.first == "" {
		l.first = err.Error()
	}
}

// runLadder replays the first ladderOps commands of connection 0's
// stream at every rung, one caller, then with two concurrent callers.
// A warm pass first brings the store to the state every rung starts
// from: the stream's writes carry fixed values, so replaying them
// again leaves that state unchanged.
func runLadder(d *deployment, ks *keyspace, seed uint64) (*ladder, error) {
	gen := newGenerator(ks.w, seed, 0)
	stream := make([]command, ladderOps)
	for i := range stream {
		stream[i] = gen.next()
	}
	l := &ladder{stats: map[string]*opStats{}}
	engine, err := openEngine(d, ks, l)
	if err != nil {
		return nil, err
	}
	defer engine.Close()

	callers := make([]func() (rungCaller, error), numRungs)
	callers[rungResp] = func() (rungCaller, error) { return newRespCaller(d, ks) }
	callers[rungAbase] = func() (rungCaller, error) { return &abaseCaller{ks: ks, c: d.tenant.Client()}, nil }
	callers[rungProxy] = func() (rungCaller, error) { return &proxyCaller{ks: ks, f: d.tenant.Fleet()}, nil }
	callers[rungNode] = func() (rungCaller, error) { return &nodeCaller{ks: ks, d: d}, nil }
	callers[rungEngine] = func() (rungCaller, error) { return &engineCaller{ks: ks, l: l}, nil }

	for _, warm := range []int{rungAbase, rungEngine} {
		drv, _ := callers[warm]()
		l.replay(drv, -1, stream)
	}
	t0 := time.Now()
	for rung := 0; rung < numRungs; rung++ {
		drv, err := callers[rung]()
		if err != nil {
			return nil, err
		}
		l.replay(drv, rung, stream)
		closeCaller(drv)
	}
	for rung := 0; rung < numRungs; rung++ {
		if l.c2[rung], err = l.contended(callers[rung], stream); err != nil {
			return nil, err
		}
	}
	l.final = engine.Stats()
	return l, l.writeSpans(t0, ks.w.name, seed)
}

func closeCaller(drv rungCaller) {
	if c, ok := drv.(interface{ Close() error }); ok {
		c.Close()
	}
}

// replay runs the stream through drv, timing each call as a span. rung
// -1 is an untimed warm pass. Allocations are the process-wide malloc
// count between two reads taken outside the span.
func (l *ladder) replay(drv rungCaller, rung int, stream []command) {
	var m0, m1 runtime.MemStats
	for i, cmd := range stream {
		op, ok := drv.prepare(cmd, uint64(i+1))
		if !ok {
			continue
		}
		if rung < 0 {
			if err := drv.call(); err != nil {
				l.fail(err)
			}
			drv.finish()
			continue
		}
		runtime.ReadMemStats(&m0)
		start := time.Now()
		err := drv.call()
		end := time.Now()
		runtime.ReadMemStats(&m1)
		out, ferr := drv.finish()
		l.calls++
		if err == nil {
			err = ferr
		}
		if err != nil {
			l.fail(fmt.Errorf("%s.%s #%d: %w", rungNames[rung], op, i+1, err))
			continue
		}
		l.spans = append(l.spans, span{uint8(rung), op, uint32(i + 1), start, end})
		s := l.opStats(rung, op)
		ns := int64(end.Sub(start))
		s.ns = append(s.ns, ns)
		s.allocs += m1.Mallocs - m0.Mallocs
		switch out {
		case outcomeHit:
			s.hit = append(s.hit, ns)
		case outcomeMiss:
			s.miss = append(s.miss, ns)
		}
	}
}

// contended runs the stream with two concurrent callers, each taking
// every other command, and returns their combined ops/s.
func (l *ladder) contended(mk func() (rungCaller, error), stream []command) (float64, error) {
	var drvs [2]rungCaller
	for c := range drvs {
		drv, err := mk()
		if err != nil {
			return 0, err
		}
		defer closeCaller(drv)
		drvs[c] = drv
	}
	var wg sync.WaitGroup
	var done [2]int64
	var errs [2]error
	start := time.Now()
	for c := range drvs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(stream); i += 2 {
				if _, ok := drvs[c].prepare(stream[i], uint64(i+1)); !ok {
					continue
				}
				err := drvs[c].call()
				if _, ferr := drvs[c].finish(); err == nil {
					err = ferr
				}
				if err != nil && errs[c] == nil {
					errs[c] = err
				}
				done[c]++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			l.fail(err)
		}
	}
	l.calls += done[0] + done[1]
	return float64(done[0]+done[1]) / elapsed.Seconds(), nil
}

// writeSpans writes every span as one JSON line, times in ns since the
// first rung started.
func (l *ladder) writeSpans(t0 time.Time, workload string, seed uint64) error {
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range l.spans {
		fmt.Fprintf(w, `{"name":"%s.%s","req":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			rungNames[s.rung], s.op, s.req, s.start.Sub(t0).Nanoseconds(), s.end.Sub(t0).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(l.spans), path)
	return nil
}

// checkValue validates a value read from a string key.
func checkValue(ks *keyspace, v, key []byte) error {
	if _, ok := parseValue(v, key, "", ks.w.valueSize); !ok {
		return fmt.Errorf("malformed value for %s", key)
	}
	return nil
}

// ladderCmd is a prepared command shared by the callers.
type ladderCmd struct {
	cmd   command
	op    string
	key   []byte
	field string
	value []byte
}

func (p *ladderCmd) set(ks *keyspace, cmd command, seq uint64) (string, bool) {
	*p = ladderCmd{cmd: cmd, op: cmd.op.String()}
	switch cmd.op {
	case opGet:
		p.key = ks.str[cmd.key]
	case opSet:
		p.key = ks.str[cmd.key]
		p.value = makeValue(p.key, "", '0', seq, ks.w.valueSize)
	case opHSet:
		p.key, p.field = ks.hash[cmd.key], ks.fields[0][cmd.field]
		p.value = makeValue(p.key, p.field, '0', seq, ks.w.fieldSize)
	case opScan:
	default:
		return "", false // HGET has no rung of its own
	}
	return p.op, true
}

// --- resp: resp.Client.Do over loopback ---

type respCaller struct {
	ladderCmd
	ks     *keyspace
	c      *resp.Client
	args   [][]byte
	name   string
	reply  resp.Value
	cursor []byte
}

func newRespCaller(d *deployment, ks *keyspace) (*respCaller, error) {
	c, err := resp.Dial(d.addr)
	if err != nil {
		return nil, err
	}
	if v, err := c.Do("AUTH", []byte(tenantName)); err != nil || v.IsError() {
		c.Close()
		return nil, fmt.Errorf("auth: %v %s", err, v.Text())
	}
	return &respCaller{ks: ks, c: c, cursor: []byte("0")}, nil
}

func (r *respCaller) Close() error { return r.c.Close() }

func (r *respCaller) prepare(cmd command, seq uint64) (string, bool) {
	op, ok := r.set(r.ks, cmd, seq)
	switch cmd.op {
	case opGet:
		r.name, r.args = "GET", [][]byte{r.key}
	case opSet:
		r.name, r.args = "SET", [][]byte{r.key, r.value}
	case opHSet:
		r.name, r.args = "HSET", [][]byte{r.key, []byte(r.field), r.value}
	case opScan:
		r.name, r.args = "SCAN", [][]byte{r.cursor, []byte("COUNT"), []byte(strconv.Itoa(scanCount))}
	}
	return op, ok
}

func (r *respCaller) call() (err error) {
	r.reply, err = r.c.Do(r.name, r.args...)
	return err
}

func (r *respCaller) finish() (int, error) {
	v := r.reply
	if v.IsError() {
		return 0, errors.New(v.Text())
	}
	switch r.cmd.op {
	case opGet:
		return 0, checkValue(r.ks, v.Str, r.key)
	case opSet:
		if v.Text() != "OK" {
			return 0, fmt.Errorf("SET replied %q", v.Text())
		}
	case opHSet:
		if v.Kind != resp.Integer {
			return 0, fmt.Errorf("HSET replied %q", v.Text())
		}
	case opScan:
		if v.Kind != resp.Array || len(v.Array) != 2 {
			return 0, fmt.Errorf("SCAN replied %q", v.Text())
		}
		r.cursor = append(r.cursor[:0], v.Array[0].Str...)
	}
	return 0, nil
}

// --- abase: the Client methods ---

type abaseCaller struct {
	ladderCmd
	ks     *keyspace
	c      *abase.Client
	val    []byte
	cursor string
}

func (a *abaseCaller) prepare(cmd command, seq uint64) (string, bool) { return a.set(a.ks, cmd, seq) }

func (a *abaseCaller) call() (err error) {
	ctx := context.Background()
	switch a.cmd.op {
	case opGet:
		a.val, err = a.c.Get(ctx, a.key)
	case opSet:
		err = a.c.Set(ctx, a.key, a.value)
	case opHSet:
		_, err = a.c.HSetFields(ctx, a.key, []abase.FieldValue{{Field: a.field, Value: a.value}})
	case opScan:
		_, a.cursor, err = a.c.Scan(ctx, a.cursor, "", scanCount)
	}
	return err
}

func (a *abaseCaller) finish() (int, error) {
	if a.cmd.op == opGet {
		return 0, checkValue(a.ks, a.val, a.key)
	}
	return 0, nil
}

// --- proxy: the tenant's proxy.Fleet ---

type proxyCaller struct {
	ladderCmd
	ks     *keyspace
	f      *proxy.Fleet
	val    []byte
	cursor string
	hits   int64
}

func (p *proxyCaller) prepare(cmd command, seq uint64) (string, bool) {
	p.hits = p.f.AggregateStats().CacheHits
	return p.set(p.ks, cmd, seq)
}

func (p *proxyCaller) call() (err error) {
	ctx := context.Background()
	switch p.cmd.op {
	case opGet:
		p.val, err = p.f.Get(ctx, p.key)
	case opSet:
		err = p.f.Put(ctx, p.key, p.value, 0)
	case opHSet:
		_, err = p.f.HSetMulti(ctx, p.key, []proxy.FieldValue{{Field: p.field, Value: p.value}})
	case opScan:
		var page proxy.ScanPage
		page, err = p.f.Scan(ctx, p.cursor, proxy.ScanOptions{Count: scanCount, KeysOnly: true})
		p.cursor = page.Cursor
	}
	return err
}

func (p *proxyCaller) finish() (int, error) {
	if p.cmd.op != opGet {
		return outcomeNone, nil
	}
	out := outcomeMiss
	if p.f.AggregateStats().CacheHits > p.hits {
		out = outcomeHit
	}
	return out, checkValue(p.ks, p.val, p.key)
}

// --- datanode: the route's primary DataNode ---

type nodeCaller struct {
	ladderCmd
	ks    *keyspace
	d     *deployment
	node  *datanode.Node
	route partition.Route
	res   datanode.OpResult
	err   error  // route lookup failure, returned by call
	part  int    // partition the scan walk is in
	next  []byte // resume key in that partition
}

func (n *nodeCaller) prepare(cmd command, seq uint64) (string, bool) {
	op, ok := n.set(n.ks, cmd, seq)
	if !ok {
		return "", false
	}
	meta := n.d.cluster.Meta
	if cmd.op == opScan {
		n.route, n.err = meta.RouteForIndex(tenantName, n.part)
	} else {
		n.route, n.err = meta.RouteFor(tenantName, n.key)
	}
	if n.err == nil {
		n.node, n.err = meta.Node(n.route.Primary)
	}
	return op, true
}

func (n *nodeCaller) call() (err error) {
	if n.err != nil {
		return fmt.Errorf("route lookup: %w", n.err)
	}
	ctx := context.Background()
	pid := n.route.Partition
	switch n.cmd.op {
	case opGet:
		n.res, err = n.node.Get(ctx, pid, n.key)
	case opSet:
		n.res, err = n.node.PutAt(ctx, pid, n.route.Epoch, n.key, n.value, 0)
	case opHSet:
		_, err = n.node.HSetMulti(ctx, pid, n.key, []datanode.FieldValue{{Field: n.field, Value: n.value}})
	case opScan:
		var page datanode.ScanResult
		page, err = n.node.RangeScan(ctx, pid, datanode.ScanOptions{Start: n.next, Limit: scanCount, KeysOnly: true})
		n.next = page.NextKey
	}
	return err
}

func (n *nodeCaller) finish() (int, error) {
	switch n.cmd.op {
	case opGet:
		out := outcomeMiss
		if n.res.CacheHit {
			out = outcomeHit
		}
		return out, checkValue(n.ks, n.res.Value, n.key)
	case opScan:
		if n.next == nil {
			parts, err := n.d.cluster.Meta.NumPartitions(tenantName)
			if err != nil {
				return 0, err
			}
			n.part = (n.part + 1) % parts
		}
	}
	return outcomeNone, nil
}

// --- lavastore: a DB the benchmark owns, holding one partition's keys ---

// openEngine opens the engine rung's DB and loads the string keys that
// route to the tenant's first partition, as the bulk load left them.
func openEngine(d *deployment, ks *keyspace, l *ladder) (*lavastore.DB, error) {
	db, err := lavastore.Open(lavastore.Options{FS: lavastore.NewMemFS(), Dir: "perfbench"})
	if err != nil {
		return nil, err
	}
	l.engine = db
	first := func(keys [][]byte) ([]bool, error) {
		in := make([]bool, len(keys))
		for i, key := range keys {
			route, err := d.cluster.Meta.RouteFor(tenantName, key)
			if err != nil {
				return nil, err
			}
			in[i] = route.Partition.Index == 0
		}
		return in, nil
	}
	if l.strIn0, err = first(ks.str); err == nil {
		l.hIn0, err = first(ks.hash)
	}
	for i, key := range ks.str {
		if err == nil && l.strIn0[i] {
			err = db.Put(key, makeValue(key, "", loaderWriter, 0, ks.w.valueSize), 0)
			l.ops.Add(1)
		}
	}
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("load engine: %w", err)
	}
	return db, nil
}

type engineCaller struct {
	ladderCmd
	ks   *keyspace
	l    *ladder
	res  lavastore.GetResult
	next []byte
}

func (e *engineCaller) prepare(cmd command, seq uint64) (string, bool) {
	op, ok := e.set(e.ks, cmd, seq)
	switch {
	case !ok:
		return "", false
	case cmd.op == opHSet && !e.l.hIn0[cmd.key], (cmd.op == opGet || cmd.op == opSet) && !e.l.strIn0[cmd.key]:
		return "", false
	}
	if op == "set" || op == "hset" {
		op = "put"
	}
	return op, true
}

func (e *engineCaller) call() (err error) {
	db := e.l.engine
	switch e.cmd.op {
	case opGet:
		e.res, err = db.Get(e.key)
	case opSet, opHSet:
		err = db.Put(e.key, e.value, 0)
	case opScan:
		var page lavastore.ScanPage
		page, err = db.ScanRange(e.next, nil, scanCount)
		e.next = page.NextKey
	}
	return err
}

func (e *engineCaller) finish() (int, error) {
	e.l.ops.Add(1)
	if e.cmd.op == opGet {
		e.l.gets.Add(1)
		return outcomeNone, checkValue(e.ks, e.res.Value, e.key)
	}
	return outcomeNone, nil
}
