// Command perfbench is the repository benchmark: it starts the
// embedded cluster the way cmd/abase-server does, serves it over RESP
// on loopback, drives one closed-loop tenant workload from the same
// process, checks every reply, audits every acknowledged write, and
// prints the end-to-end metrics. With --trace 1 it instead prints the
// per-layer metrics of a traced run (see trace.go and README.md).
//
//	go run . --workload hot-get --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"abase/internal/clock"
	"abase/internal/lavastore"
)

const (
	setups   = 3               // set-ups per run; setup_s is their median
	warmup   = 2 * time.Second // unmeasured load before the window
	mib      = 1 << 20
	auxConns = 2 // connections of the bulk load and the audit
)

// e2eNames are the metrics an untraced run reports in its result line.
var e2eNames = []string{
	"ops_s", "get_p50_us", "get_p90_us", "write_p90_us",
	"setup_s", "live_heap_mb", "space_amp",
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: hot-get, cold-mixed or pipelined-hash")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced layer ladder instead")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("bad --seconds %d or --trace %d", *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, *seed, dur)
	} else {
		res, err = runUntraced(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setUp starts a deployment and bulk-loads the workload's string keys.
func setUp(ks *keyspace, clk clock.Clock, fs lavastore.FS) (*deployment, error) {
	d, err := startDeployment(clk, fs)
	if err != nil {
		return nil, err
	}
	conns, err := dialN(d, auxConns)
	if err == nil {
		err = bulkLoad(conns, ks)
		closeAll(conns)
	}
	if err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func dialN(d *deployment, n int) ([]*conn, error) {
	var conns []*conn
	for i := 0; i < n; i++ {
		c, err := dialConn(d.addr, tenantName)
		if err != nil {
			closeAll(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closeAll(conns []*conn) {
	for _, c := range conns {
		c.Close()
	}
}

// loadRun is one loaded deployment under closed-loop load.
type loadRun struct {
	d       *deployment
	b       *books
	conns   []*conn
	workers []*worker
	warm    *loadResult
	run     *loadResult
	audit   *auditResult
}

func newLoadRun(d *deployment, ks *keyspace, seed uint64) (*loadRun, error) {
	s := &loadRun{d: d, b: newBooks(ks)}
	var err error
	if s.conns, err = dialN(d, ks.w.conns); err != nil {
		return nil, err
	}
	for i, c := range s.conns {
		s.workers = append(s.workers, newWorker(i, ks.w, s.b, c, seed))
	}
	return s, nil
}

func (s *loadRun) close() { closeAll(s.conns) }

// warmUp runs unmeasured load so caches fill before the window.
func (s *loadRun) warmUp() (err error) {
	s.warm, err = runPhase(s.workers, warmup, false)
	return err
}

// measure runs the measured window.
func (s *loadRun) measure(dur time.Duration) (err error) {
	s.run, err = runPhase(s.workers, dur, true)
	return err
}

// check audits the store once the load has stopped.
func (s *loadRun) check() error {
	conns, err := dialN(s.d, auxConns)
	if err != nil {
		return err
	}
	defer closeAll(conns)
	s.audit, err = audit(s.d, conns, s.b)
	return err
}

// drive warms up, runs the measured window, stops the load and audits.
func drive(d *deployment, ks *keyspace, seed uint64, dur time.Duration) (*loadRun, error) {
	s, err := newLoadRun(d, ks, seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := s.warmUp(); err != nil {
		return nil, err
	}
	if err := s.measure(dur); err != nil {
		return nil, err
	}
	return s, s.check()
}

// liveHeap collects garbage and returns the heap the collection found
// live: the process's steady-state memory, independent of where in its
// cycle the GC happened to be.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// verdict fills the result's correctness fields. Every reply must
// check out, no stored value may be one nobody acknowledged, and no
// acknowledged SET may be lost. Lost hash fields are reported in
// lost_writes but do not fail the run: HSET is a non-atomic
// Get-then-Put on the DataNode, and pipelined-hash's cross-connection
// contention exposes that known race on purpose.
func (s *loadRun) verdict(res *result) bool {
	failed := s.warm.failed + s.run.failed
	res.Attempted += s.warm.attempted + s.run.attempted
	res.Failed += failed
	for _, msg := range []string{s.warm.firstErr, s.run.firstErr, s.audit.firstErr} {
		if msg != "" {
			fmt.Println("first finding:", msg)
			break
		}
	}
	return failed == 0 && s.audit.bad == 0 && s.audit.lostStrings == 0
}

func runUntraced(w *workload, seed uint64, dur time.Duration) (*result, error) {
	ks := newKeyspace(w)
	var times []float64
	var d *deployment
	for i := 0; i < setups; i++ {
		if d != nil {
			d.Close()
			d = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if d, err = setUp(ks, nil, nil); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	defer d.Close()
	// Collect the earlier set-ups' garbage now, so that collecting it
	// is not charged to the measured window.
	runtime.GC()
	s, err := drive(d, ks, seed, dur)
	if err != nil {
		return nil, err
	}

	r := s.run
	write := opSet
	if w.mix[opHSet] > 0 {
		write = opHSet
	}
	var rep report
	rep.add("ops_s", r.opsPerSec(), "1/s", int(r.ops()))
	for _, p := range []struct {
		name string
		op   opKind
		q    float64
	}{{"get_p50_us", opGet, 0.50}, {"get_p90_us", opGet, 0.90}, {"write_p90_us", write, 0.90}} {
		if err := rep.addPercentile(p.name, r.lat[p.op], p.q); err != nil {
			return nil, err
		}
	}
	rep.add("setup_s", median(times), "s", len(times))
	rep.add("live_heap_mb", float64(liveHeap())/mib, "MiB", 0)
	rep.add("space_amp", float64(d.diskUsed())/float64(s.audit.liveBytes*int64(clusterConfig().Replicas)), "ratio", 0)
	// Per-command detail behind the gated metrics.
	for op := opKind(0); op < numOps; op++ {
		rep.addDetail("cmd."+op.String(), r.lat[op])
	}
	rep.add("error_ratio", float64(r.failed+s.warm.failed)/float64(r.attempted+s.warm.attempted), "ratio", 0)
	rep.add("lost_writes", float64(s.audit.lostStrings+s.audit.lostFields), "count", 0)
	rep.add("stale_hgets", float64(r.staleHGets+s.warm.staleHGets), "count", 0)
	rep.print()

	res := &result{}
	res.Correct = s.verdict(res)
	res.Metrics = rep.pick(e2eNames)
	return res, nil
}
