package main

import (
	"fmt"
	"runtime"
	"time"

	"abase/internal/clock"
	"abase/internal/lavastore"
	"abase/internal/wfq"
)

// counters is a snapshot of the public stats the traced run reads.
type counters struct {
	proxyHits, proxyMiss, proxyThrottled, proxyShed int64
	nodeHits, nodeMiss, nodeThrottled, nodeShed     int64
	nodeRU                                          float64
	ioServed, extraSpawns                           int64
	sleeps, requested, slept                        int64
	fs                                              fsCounts
	mallocs, gcs, pauseNs                           uint64
}

func readCounters(d *deployment, clk *countingClock, fs *countingFS) counters {
	var c counters
	ps := d.tenant.Fleet().AggregateStats()
	c.proxyHits, c.proxyMiss, c.proxyThrottled, c.proxyShed = ps.CacheHits, ps.CacheMiss, ps.Rejected, ps.Shed
	for _, n := range d.cluster.Nodes() {
		ts := n.TenantStats(tenantName)
		c.nodeHits += ts.CacheHits
		c.nodeMiss += ts.CacheMiss
		c.nodeThrottled += ts.Throttled
		c.nodeShed += ts.Shed
		c.nodeRU += ts.RUUsed
		for _, class := range []wfq.Class{wfq.SmallRead, wfq.LargeRead, wfq.SmallWrite, wfq.LargeWrite} {
			qs := n.Scheduler().Queue(class).Stats()
			c.ioServed += qs.IOServed
			c.extraSpawns += qs.ExtraSpawns
		}
	}
	c.sleeps, c.requested, c.slept = clk.sleeps.Load(), clk.requested.Load(), clk.slept.Load()
	c.fs = fs.counts()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.mallocs, c.gcs, c.pauseNs = m.Mallocs, uint64(m.NumGC), m.PauseTotalNs
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayerNames lists every metric a traced run reports, in order.
func perLayerNames() []string {
	var names []string
	for rung := 0; rung < numRungs; rung++ {
		for _, op := range rungOps(rung) {
			for _, m := range []string{"p50_us", "p99_us", "allocs_per_op", "self_p50_us"} {
				names = append(names, rungNames[rung]+"."+op+"."+m)
			}
		}
	}
	names = append(names,
		"proxy.get_hit.p50_us", "proxy.get_miss.p50_us",
		"datanode.get_hit.p50_us", "datanode.get_miss.p50_us")
	for _, r := range rungNames {
		names = append(names, r+".ops_s_c2")
	}
	return append(names,
		"proxy.cache_hit_ratio", "proxy.throttled", "proxy.shed",
		"datanode.cache_hit_ratio", "datanode.ru_per_op", "datanode.throttled", "datanode.shed",
		"wfq.io_served_per_op", "wfq.extra_spawns",
		"lavastore.flushes", "lavastore.compactions", "lavastore.get_io_reads_per_get",
		"runtime.allocs_per_op", "runtime.gc_cycles_per_kop", "runtime.gc_pause_ms",
		"clock.sleeps_per_op", "clock.requested_us_per_op", "clock.slept_us_per_op",
		"fs.write_bytes_per_user_byte", "fs.syncs_per_kop", "fs.read_calls_per_get", "fs.read_bytes_per_get",
		"trace.overhead_ratio", "audit.lost_writes", "audit.stale_hgets")
}

// runTraced measures the same workload and seed twice: once untraced,
// for the overhead reference, then with a counting clock and FS
// injected through ClusterConfig, reading the public counters around
// the measured window. The layer ladder then runs on the traced
// deployment.
func runTraced(w *workload, seed uint64, dur time.Duration) (*result, error) {
	ks := newKeyspace(w)
	res := &result{Correct: true}
	d, err := setUp(ks, nil, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	ref, err := drive(d, ks, seed, dur)
	d.Close()
	if err != nil {
		return nil, err
	}
	res.Correct = ref.verdict(res)

	clk := &countingClock{inner: clock.Real{}}
	fs := &countingFS{inner: lavastore.NewMemFS()}
	if d, err = setUp(ks, clk, fs); err != nil {
		return nil, err
	}
	defer d.Close()
	runtime.GC() // as in the untraced run, and collecting the reference's garbage
	s, err := newLoadRun(d, ks, seed)
	if err != nil {
		return nil, err
	}
	defer s.close()
	if err := s.warmUp(); err != nil {
		return nil, err
	}
	before := readCounters(d, clk, fs)
	if err := s.measure(dur); err != nil {
		return nil, err
	}
	after := readCounters(d, clk, fs)
	if err := s.check(); err != nil {
		return nil, err
	}
	res.Correct = s.verdict(res) && res.Correct

	l, err := runLadder(d, ks, seed)
	if err != nil {
		return nil, err
	}
	res.Attempted += l.calls
	res.Failed += l.failed
	if l.failed > 0 {
		res.Correct = false
		fmt.Println("first ladder failure:", l.first)
	}

	var rep report
	l.report(&rep)
	windowMetrics(&rep, s, before, after)
	rep.add("trace.overhead_ratio", s.run.opsPerSec()/ref.run.opsPerSec(), "ratio", 0)
	rep.add("audit.lost_writes", float64(s.audit.lostStrings+s.audit.lostFields), "count", 0)
	rep.add("audit.stale_hgets", float64(s.run.staleHGets+s.warm.staleHGets), "count", 0)
	rep.print()
	names := perLayerNames()
	res.Metrics = rep.pick(names)
	if len(res.Metrics) != len(names) {
		return nil, fmt.Errorf("traced run produced %d of %d per-layer metrics", len(res.Metrics), len(names))
	}
	return res, nil
}

// windowMetrics adds the counter deltas over the measured window, each
// divided by the commands completed in it.
func windowMetrics(rep *report, s *loadRun, a, b counters) {
	r := s.run
	ops := float64(r.ops())
	reads := float64(r.count[opGet] + r.count[opHGet])
	rep.add("proxy.cache_hit_ratio", ratio(float64(b.proxyHits-a.proxyHits), float64(b.proxyHits-a.proxyHits+b.proxyMiss-a.proxyMiss)), "ratio", 0)
	rep.add("proxy.throttled", ratio(float64(b.proxyThrottled-a.proxyThrottled), ops), "count/op", 0)
	rep.add("proxy.shed", ratio(float64(b.proxyShed-a.proxyShed), ops), "count/op", 0)
	rep.add("datanode.cache_hit_ratio", ratio(float64(b.nodeHits-a.nodeHits), float64(b.nodeHits-a.nodeHits+b.nodeMiss-a.nodeMiss)), "ratio", 0)
	rep.add("datanode.ru_per_op", ratio(b.nodeRU-a.nodeRU, ops), "RU/op", 0)
	rep.add("datanode.throttled", ratio(float64(b.nodeThrottled-a.nodeThrottled), ops), "count/op", 0)
	rep.add("datanode.shed", ratio(float64(b.nodeShed-a.nodeShed), ops), "count/op", 0)
	rep.add("wfq.io_served_per_op", ratio(float64(b.ioServed-a.ioServed), ops), "count/op", 0)
	rep.add("wfq.extra_spawns", ratio(float64(b.extraSpawns-a.extraSpawns), ops), "count/op", 0)
	rep.add("runtime.allocs_per_op", ratio(float64(b.mallocs-a.mallocs), ops), "count/op", 0)
	rep.add("runtime.gc_cycles_per_kop", ratio(float64(b.gcs-a.gcs)*1000, ops), "count/kop", 0)
	rep.add("runtime.gc_pause_ms", float64(b.pauseNs-a.pauseNs)/1e6, "ms", 0)
	rep.add("clock.sleeps_per_op", ratio(float64(b.sleeps-a.sleeps), ops), "count/op", 0)
	rep.add("clock.requested_us_per_op", ratio(float64(b.requested-a.requested)/1e3, ops), "us/op", 0)
	rep.add("clock.slept_us_per_op", ratio(float64(b.slept-a.slept)/1e3, ops), "us/op", 0)
	fs := b.fs.sub(a.fs)
	rep.add("fs.write_bytes_per_user_byte", ratio(float64(fs.writeBytes), float64(r.userBytes)), "B/B", 0)
	rep.add("fs.syncs_per_kop", ratio(float64(fs.syncs)*1000, ops), "count/kop", 0)
	rep.add("fs.read_calls_per_get", ratio(float64(fs.reads), reads), "count/get", 0)
	rep.add("fs.read_bytes_per_get", ratio(float64(fs.readBytes), reads), "B/get", 0)
}

// report adds the ladder's per-rung metrics. A rung's self time is its
// p50 minus the p50 of the op it calls one rung down; an op the stream
// does not contain reports 0 with n=0.
func (l *ladder) report(rep *report) {
	p50 := func(rung int, op string) float64 {
		s := l.stats[rungNames[rung]+"."+op]
		if s == nil {
			return 0
		}
		v, _ := quantile(s.ns, 0.5)
		return v
	}
	for rung := 0; rung < numRungs; rung++ {
		for _, op := range rungOps(rung) {
			name := rungNames[rung] + "." + op
			s := l.stats[name]
			if s == nil {
				s = &opStats{}
			}
			n := len(s.ns)
			mid := p50(rung, op)
			tail, _ := quantile(s.ns, 0.99)
			self := mid
			if rung+1 < numRungs && n > 0 {
				self = mid - p50(rung+1, opBelow(rung, op))
			}
			rep.add(name+".p50_us", mid, "us", n)
			rep.add(name+".p99_us", tail, "us", n)
			rep.add(name+".allocs_per_op", ratio(float64(s.allocs), float64(n)), "count/op", n)
			rep.add(name+".self_p50_us", self, "us", n)
		}
	}
	for _, k := range []string{"proxy.get", "datanode.get"} {
		s := l.stats[k]
		if s == nil {
			s = &opStats{}
		}
		hit, _ := quantile(s.hit, 0.5)
		miss, _ := quantile(s.miss, 0.5)
		rep.add(k+"_hit.p50_us", hit, "us", len(s.hit))
		rep.add(k+"_miss.p50_us", miss, "us", len(s.miss))
	}
	for rung, v := range l.c2 {
		rep.add(rungNames[rung]+".ops_s_c2", v, "1/s", 0)
	}
	st := l.final
	ops := float64(l.ops.Load())
	rep.add("lavastore.flushes", ratio(float64(st.Flushes), ops), "count/op", 0)
	rep.add("lavastore.compactions", ratio(float64(st.Compactions), ops), "count/op", 0)
	rep.add("lavastore.get_io_reads_per_get", ratio(float64(st.GetIOReads), float64(l.gets.Load())), "count/get", 0)
}
