package main

import (
	"math"
	"testing"
)

func TestGeneratorReproducesStream(t *testing.T) {
	for _, w := range workloads {
		a, b := newGenerator(w, 7, 1), newGenerator(w, 7, 1)
		other, otherConn := newGenerator(w, 8, 1), newGenerator(w, 7, 0)
		var diffSeed, diffConn bool
		for i := 0; i < 10_000; i++ {
			x := a.next()
			if y := b.next(); x != y {
				t.Fatalf("%s: command %d differs for the same seed: %+v vs %+v", w.name, i, x, y)
			}
			diffSeed = diffSeed || other.next() != x
			diffConn = diffConn || otherConn.next() != x
		}
		if !diffSeed || !diffConn {
			t.Errorf("%s: another seed or connection gave the same stream", w.name)
		}
	}
}

// TestGeneratorMatchesSpec checks each workload's op mix, key range
// and field range over 200k commands. The op shares' standard error
// is at most 0.0012 here, so a 0.01 tolerance is over 8 sigma.
func TestGeneratorMatchesSpec(t *testing.T) {
	const n = 200_000
	for _, w := range workloads {
		g := newGenerator(w, 42, 0)
		var count [numOps]int
		for i := 0; i < n; i++ {
			c := g.next()
			count[c.op]++
			switch c.op {
			case opGet, opSet:
				if int(c.key) >= w.strKeys {
					t.Fatalf("%s: string key %d out of range", w.name, c.key)
				}
			case opHSet, opHGet:
				if int(c.key) >= w.hashes || int(c.field) >= w.fieldsPerConn {
					t.Fatalf("%s: hash %d field %d out of range", w.name, c.key, c.field)
				}
			}
		}
		for op, share := range w.mix {
			if got := float64(count[op]) / n; math.Abs(got-share) > 0.01 {
				t.Errorf("%s: %s share %.4f, want %.2f±0.01", w.name, opKind(op), got, share)
			}
		}
	}
}

// zipfHead is the share of draws the top k of n keys get under the
// Zipf law rand.Zipf samples: P(i) ∝ (1+i)^-s.
func zipfHead(k, n int) float64 {
	var head, all float64
	for i := 0; i < n; i++ {
		p := math.Pow(float64(1+i), -zipfS)
		all += p
		if i < k {
			head += p
		}
	}
	return head / all
}

// TestZipfHeadShare checks that the hottest 1% of hot-get's keys draw
// their theoretical share (~0.61) of the key draws within 0.01.
func TestZipfHeadShare(t *testing.T) {
	w, _ := findWorkload("hot-get")
	g := newGenerator(w, 3, 0)
	const n = 200_000
	head := w.strKeys / 100
	hits := 0
	for i := 0; i < n; i++ {
		if g.next().key < uint32(head) {
			hits++
		}
	}
	want := zipfHead(head, w.strKeys)
	if got := float64(hits) / n; math.Abs(got-want) > 0.01 {
		t.Errorf("top 1%% share %.4f, want %.4f±0.01", got, want)
	}
}

// TestUniformCoverage checks that as many uniform key draws as keys
// touch 1-1/e of cold-mixed's keyspace, within 0.005.
func TestUniformCoverage(t *testing.T) {
	w, _ := findWorkload("cold-mixed")
	g := newGenerator(w, 5, 0)
	seen := make([]bool, w.strKeys)
	distinct := 0
	for draws := 0; draws < w.strKeys; {
		c := g.next()
		if c.op == opScan {
			continue
		}
		draws++
		if !seen[c.key] {
			seen[c.key] = true
			distinct++
		}
	}
	want := 1 - math.Pow(1-1/float64(w.strKeys), float64(w.strKeys))
	if got := float64(distinct) / float64(w.strKeys); math.Abs(got-want) > 0.005 {
		t.Errorf("coverage %.4f, want %.4f±0.005", got, want)
	}
}

func TestValueRoundTrip(t *testing.T) {
	key := []byte("H00042")
	v := makeValue(key, "c1.3", '1', 12345, 64)
	if len(v) != 64 {
		t.Fatalf("len %d, want 64", len(v))
	}
	tag, ok := parseValue(v, key, "c1.3", 64)
	if !ok || tag.writer != '1' || tag.seq != 12345 {
		t.Fatalf("parse = %+v %v", tag, ok)
	}
	if _, ok := parseValue(v, []byte("H00043"), "c1.3", 64); ok {
		t.Error("accepted a value read under another key")
	}
	if _, ok := parseValue(v, key, "c0.3", 64); ok {
		t.Error("accepted a value read under another field")
	}
	bad := append([]byte(nil), v...)
	bad[40] ^= 1
	if _, ok := parseValue(bad, key, "c1.3", 64); ok {
		t.Error("accepted a corrupted value")
	}
	if _, ok := parseValue(v[:63], key, "c1.3", 63); ok {
		t.Error("accepted a truncated value")
	}
}
