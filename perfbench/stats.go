package main

import (
	"fmt"
	"slices"
	"time"
)

// minTailSamples is how many samples must lie beyond a reported
// percentile: p99 needs at least 1000 samples.
const minTailSamples = 10

// quantile returns the nearest-rank q-quantile of ns in µs. ok is false
// when fewer than minTailSamples samples lie beyond it (for q < 1).
func quantile(ns []int64, q float64) (us float64, ok bool) {
	if len(ns) == 0 {
		return 0, false
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	rank := int(float64(len(s))*q+0.999999) - 1
	rank = max(0, min(rank, len(s)-1))
	return float64(s[rank]) / float64(time.Microsecond), len(s)-1-rank >= minTailSamples
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value; 0 when it is a count or ratio
}

type report struct {
	metrics []metric
}

func (r *report) add(name string, value float64, unit string, n int) {
	r.metrics = append(r.metrics, metric{name, value, unit, n})
}

// addPercentile adds the q-quantile of ns samples as name. It is an
// error when fewer than minTailSamples samples lie beyond it.
func (r *report) addPercentile(name string, ns []int64, q float64) error {
	v, ok := quantile(ns, q)
	if !ok {
		return fmt.Errorf("%s: %d samples are too few", name, len(ns))
	}
	r.add(name, v, "us", len(ns))
	return nil
}

// addDetail adds <name>.p50_us, and <name>.p99_us where enough
// samples lie beyond it, for an op the workload issues.
func (r *report) addDetail(name string, ns []int64) {
	if len(ns) == 0 {
		return
	}
	p50, _ := quantile(ns, 0.50)
	r.add(name+".p50_us", p50, "us", len(ns))
	if p99, ok := quantile(ns, 0.99); ok {
		r.add(name+".p99_us", p99, "us", len(ns))
	}
}

// print writes one human-readable line per metric.
func (r *report) print() {
	for _, m := range r.metrics {
		if m.n > 0 {
			fmt.Printf("%-36s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("%-36s %14.4f %s\n", m.name, m.value, m.unit)
		}
	}
}

// pick returns the named metrics for the result line. Every name must
// have been added.
func (r *report) pick(names []string) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(names))
	for _, m := range r.metrics {
		out[m.name] = jsonMetric{m.value, m.unit}
	}
	for k := range out {
		if !slices.Contains(names, k) {
			delete(out, k)
		}
	}
	return out
}
