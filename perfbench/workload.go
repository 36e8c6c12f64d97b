package main

import (
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"strconv"
)

// opKind is one command type a workload issues.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opHSet
	opHGet
	opScan
	numOps
)

var opNames = [numOps]string{"get", "set", "hset", "hget", "scan"}

func (o opKind) String() string { return opNames[o] }

// keyDist selects how a workload picks keys.
type keyDist uint8

const (
	distZipf keyDist = iota
	distUniform
)

// zipfS is the Zipf exponent of the skewed workloads.
const zipfS = 1.1

// scanCount is the COUNT of every SCAN page.
const scanCount = 64

// workload is one traffic mix: its connections, pipeline depth,
// keyspace, and op mix. The comments in workloads say why each exists.
type workload struct {
	name  string
	conns int // RESP connections, each closed-loop
	depth int // commands written per round trip (1 = no pipelining)

	strKeys   int // string keyspace size
	strPrefix string
	valueSize int
	dist      keyDist // distribution over string keys (and hashes)

	hashes        int // hash keyspace size (0 = no hashes)
	fieldsPerConn int // distinct fields each connection owns per hash
	fieldSize     int

	mix [numOps]float64 // op shares, summing to 1
}

var workloads = []*workload{
	{
		// The read-mostly cached tenant of the paper's two-layer cache:
		// ~6 MiB of values fit both the proxy AU-LRU and the node
		// SA-LRU, so the median GET is a proxy-cache hit and the engine
		// is nearly idle. One caller, one command in flight: the
		// single-connection RESP latency.
		name: "hot-get", conns: 1, depth: 1,
		strKeys: 50_000, strPrefix: "s", valueSize: 128, dist: distZipf,
		mix: [numOps]float64{opGet: 0.95, opSet: 0.05},
	},
	{
		// The storage-bound tenant: ~100 MiB of uniformly accessed
		// values is over 6x each node's 16 MiB SA-LRU, so reads miss
		// into LavaStore; SETs drive flush, compaction and 3x
		// replication; SCANs walk the merged iterator.
		name: "cold-mixed", conns: 2, depth: 1,
		strKeys: 100_000, strPrefix: "c", valueSize: 1024, dist: distUniform,
		mix: [numOps]float64{opGet: 0.50, opSet: 0.45, opScan: 0.05},
	},
	{
		// The throughput-bound client that pipelines 32 commands per
		// round trip. HSET is a DataNode read-modify-write, and both
		// connections write the same hot hashes (distinct fields), which
		// exposes lost updates from a non-atomic Get-then-Put.
		name: "pipelined-hash", conns: 2, depth: 32,
		strKeys: 50_000, strPrefix: "s", valueSize: 128, dist: distZipf,
		hashes: 5_000, fieldsPerConn: 4, fieldSize: 64,
		mix: [numOps]float64{opHSet: 0.40, opHGet: 0.30, opGet: 0.30},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// command is one generated command. key indexes the string keyspace,
// or the hash keyspace for HSET/HGET; field is the connection-local
// field index of a hash command.
type command struct {
	op    opKind
	key   uint32
	field uint8
}

// generator produces one connection's deterministic command stream.
// The same (seed, connection) always yields the same stream.
type generator struct {
	w     *workload
	r     *rand.Rand
	zStr  *rand.Zipf
	zHash *rand.Zipf
	cum   [numOps]float64
}

func newGenerator(w *workload, seed uint64, conn int) *generator {
	g := &generator{w: w, r: rand.New(rand.NewPCG(seed, uint64(conn)))}
	if w.dist == distZipf {
		g.zStr = rand.NewZipf(g.r, zipfS, 1, uint64(w.strKeys-1))
		if w.hashes > 0 {
			g.zHash = rand.NewZipf(g.r, zipfS, 1, uint64(w.hashes-1))
		}
	}
	sum := 0.0
	for op, share := range w.mix {
		sum += share
		g.cum[op] = sum
	}
	return g
}

func (g *generator) next() command {
	u := g.r.Float64()
	op := opScan
	for o := opKind(0); o < numOps; o++ {
		if u < g.cum[o] {
			op = o
			break
		}
	}
	c := command{op: op}
	switch op {
	case opGet, opSet:
		c.key = g.pick(g.zStr, g.w.strKeys)
	case opHSet, opHGet:
		c.key = g.pick(g.zHash, g.w.hashes)
		c.field = uint8(g.r.IntN(g.w.fieldsPerConn))
	}
	return c
}

func (g *generator) pick(z *rand.Zipf, n int) uint32 {
	if z != nil {
		return uint32(z.Uint64())
	}
	return uint32(g.r.IntN(n))
}

// Key names are fixed width so SCAN order is numeric order.
func strKey(w *workload, i uint32) []byte {
	return fmt.Appendf(nil, "%s%06d", w.strPrefix, i)
}

func hashKey(i uint32) []byte { return fmt.Appendf(nil, "H%05d", i) }

// fieldName is unique per connection: connection c owns fields
// "c<c>.<i>", so every hash field has exactly one writer.
func fieldName(conn int, i uint8) string { return fmt.Sprintf("c%d.%d", conn, i) }

// loaderWriter marks values written by the bulk load.
const loaderWriter = 'L'

// Values are self-describing, so any reply can be checked against the
// key (and field) it was read from:
//
//	<key>|<field>|<writer>|<seq>|<filler...><crc32 hex>
//
// writer is the connection digit (or loaderWriter) and seq the
// writer's command position; filler pads to the workload's value size
// and depends on seq, and the trailing CRC-32 covers everything before
// it.
func makeValue(key []byte, field string, writer byte, seq uint64, size int) []byte {
	v := make([]byte, 0, size)
	v = append(v, key...)
	v = append(v, '|')
	v = append(v, field...)
	v = append(v, '|', writer, '|')
	v = strconv.AppendUint(v, seq, 10)
	v = append(v, '|')
	for i := 0; len(v) < size-8; i++ {
		v = append(v, byte('a'+(seq+uint64(i))%26))
	}
	return fmt.Appendf(v, "%08x", crc32.ChecksumIEEE(v))
}

// valueTag is what a reply claims about itself.
type valueTag struct {
	writer byte
	seq    uint64
}

// parseValue validates v as a value written for (key, field) with the
// given size and returns its writer and sequence.
func parseValue(v, key []byte, field string, size int) (valueTag, bool) {
	if len(v) != size {
		return valueTag{}, false
	}
	body := v[:size-8]
	sum, err := strconv.ParseUint(string(v[size-8:]), 16, 32)
	if err != nil || uint32(sum) != crc32.ChecksumIEEE(body) {
		return valueTag{}, false
	}
	head := len(key) + 1 + len(field) + 1
	if len(body) < head+3 || string(body[:len(key)]) != string(key) ||
		body[len(key)] != '|' || string(body[len(key)+1:head-1]) != field || body[head-1] != '|' {
		return valueTag{}, false
	}
	tag := valueTag{writer: body[head]}
	rest := body[head+1:]
	if rest[0] != '|' {
		return valueTag{}, false
	}
	rest = rest[1:]
	end := 0
	for end < len(rest) && rest[end] != '|' {
		end++
	}
	if end == len(rest) {
		return valueTag{}, false
	}
	seq, err := strconv.ParseUint(string(rest[:end]), 10, 64)
	if err != nil {
		return valueTag{}, false
	}
	tag.seq = seq
	return tag, true
}
