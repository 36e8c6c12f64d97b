package main

import (
	"fmt"
	"strconv"
	"sync"

	"abase/internal/resp"
)

const (
	msetKeys   = 100 // keys per MSET in the bulk load
	auditDepth = 16  // audit commands in flight per connection
)

// pipelined splits n items across conns and, on each connection,
// keeps up to depth commands in flight: send(i) buffers item i's
// command and handle(i, v) takes its reply.
func pipelined(conns []*conn, n, depth int, send func(c *conn, i int), handle func(ci, i int, v resp.Value)) error {
	var wg sync.WaitGroup
	errs := make([]error, len(conns))
	for ci, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := ci; lo < n; lo += depth * len(conns) {
				var batch []int
				for i := lo; i < n && len(batch) < depth; i += len(conns) {
					send(c, i)
					batch = append(batch, i)
				}
				if err := c.flush(); err != nil {
					errs[ci] = err
					return
				}
				for _, i := range batch {
					v, err := c.read()
					if err != nil {
						errs[ci] = err
						return
					}
					handle(ci, i, v)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// bulkLoad writes every string key's initial value with MSET.
func bulkLoad(conns []*conn, ks *keyspace) error {
	w := ks.w
	n := (w.strKeys + msetKeys - 1) / msetKeys
	bad := make([]string, len(conns))
	err := pipelined(conns, n, 1, func(c *conn, i int) {
		args := [][]byte{[]byte("MSET")}
		for k := i * msetKeys; k < min((i+1)*msetKeys, w.strKeys); k++ {
			args = append(args, ks.str[k], makeValue(ks.str[k], "", loaderWriter, 0, w.valueSize))
		}
		c.send(args...)
	}, func(ci, i int, v resp.Value) {
		if v.Kind != resp.SimpleString || v.Text() != "OK" {
			bad[ci] = fmt.Sprintf("MSET batch %d replied %q", i, v.Text())
		}
	})
	if err != nil {
		return fmt.Errorf("bulk load: %w", err)
	}
	for _, b := range bad {
		if b != "" {
			return fmt.Errorf("bulk load: %s", b)
		}
	}
	return nil
}

// auditResult is the read-back audit's verdict.
type auditResult struct {
	lostStrings int64 // acknowledged SETs the store no longer holds
	lostFields  int64 // acknowledged HSETs the store no longer holds
	bad         int64 // stored values no acknowledged write produced
	liveBytes   int64 // key+value bytes of the live data set
	firstErr    string
}

type finding uint8

const (
	badValue finding = iota
	lostString
	lostField
)

func (a *auditResult) note(f finding, format string, args ...any) {
	switch f {
	case badValue:
		a.bad++
	case lostString:
		a.lostStrings++
	case lostField:
		a.lostFields++
	}
	if a.firstErr == "" {
		a.firstErr = fmt.Sprintf(format, args...)
	}
}

// audit reads every key back once all load has stopped. Every string
// key must hold a value one of its writers last acknowledged, and not
// one overwritten by a later acknowledged write; every hash field must
// hold its single writer's last acknowledged value.
//
// String keys are read straight from each partition's primary replica:
// over RESP, MGET pays the simulated I/O cost per key, which on
// cold-mixed's 100k keys takes ~40 s. Hashes are read with HGETALL.
func audit(d *deployment, conns []*conn, b *books) (*auditResult, error) {
	ks := b.ks
	total := &auditResult{}
	view, err := d.cluster.Meta.RoutingView(tenantName)
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	seen := make([]bool, len(ks.str))
	for _, route := range view.Partitions {
		n, err := d.cluster.Meta.Node(route.Primary)
		if err != nil {
			return nil, fmt.Errorf("audit: %w", err)
		}
		err = n.ScanReplica(route.Partition, func(key, value []byte) bool {
			if i, ok := b.strIndex(key); ok {
				seen[i] = true
				b.auditString(i, value, total)
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("audit %s: %w", route.Partition, err)
		}
	}
	for i, ok := range seen {
		if !ok {
			b.auditString(i, nil, total)
		}
	}

	parts := make([]auditResult, len(conns))
	err = pipelined(conns, len(ks.hash), auditDepth, func(c *conn, i int) {
		c.send([]byte("HGETALL"), ks.hash[i])
	}, func(ci, i int, v resp.Value) {
		b.auditHash(i, v, &parts[ci])
	})
	if err != nil {
		return nil, fmt.Errorf("audit hashes: %w", err)
	}
	for _, p := range parts {
		total.lostFields += p.lostFields
		total.bad += p.bad
		total.liveBytes += p.liveBytes
		if total.firstErr == "" {
			total.firstErr = p.firstErr
		}
	}
	return total, nil
}

// strIndex maps a stored key back to its string-keyspace index.
func (b *books) strIndex(key []byte) (int, bool) {
	w := b.ks.w
	p := w.strPrefix
	if len(key) != len(p)+6 || string(key[:len(p)]) != p || !isDecimal(key[len(p):]) {
		return 0, false
	}
	n, _ := strconv.Atoi(string(key[len(p):]))
	return n, n < w.strKeys
}

// auditString checks key i's stored value (nil when it is missing).
func (b *books) auditString(i int, v []byte, a *auditResult) {
	key, w := b.ks.str[i], b.ks.w
	if v == nil {
		a.note(lostString, "%s: missing", key)
		return
	}
	a.liveBytes += int64(len(key) + len(v))
	tag, ok := parseValue(v, key, "", w.valueSize)
	if !ok {
		a.note(badValue, "%s: malformed value", key)
		return
	}
	slot := i * b.conns
	if tag.writer == loaderWriter {
		for wr := 0; wr < b.conns; wr++ {
			if b.strAcked[slot+wr].Load() > 0 {
				a.note(lostString, "%s: holds the bulk-load value; writer %d's acked SET is lost", key, wr)
				return
			}
		}
		return
	}
	wr := int(tag.writer - '0')
	if wr < 0 || wr >= b.conns {
		a.note(badValue, "%s: unknown writer %q", key, tag.writer)
		return
	}
	switch acked := b.strAcked[slot+wr].Load(); {
	case tag.seq > acked:
		a.note(badValue, "%s: writer %d's value %d was never acknowledged", key, wr, tag.seq)
		return
	case tag.seq < acked:
		a.note(lostString, "%s: writer %d's acked SET %d is lost", key, wr, acked)
		return
	}
	// A SET another writer started after this value's SET was
	// acknowledged must have overwritten it.
	for o := 0; o < b.conns; o++ {
		if o != wr && b.strAcked[slot+o].Load() > 0 && b.strSent[slot+o] > b.strAckAt[slot+wr] {
			a.note(lostString, "%s: writer %d's later acked SET is lost", key, o)
			return
		}
	}
}

func (b *books) auditHash(h int, v resp.Value, a *auditResult) {
	key, w := b.ks.hash[h], b.ks.w
	if v.Kind != resp.Array || len(v.Array)%2 != 0 {
		a.note(badValue, "HGETALL %s: malformed reply %q", key, v.Text())
		return
	}
	seen := make([]bool, b.conns*w.fieldsPerConn)
	if len(v.Array) > 0 {
		a.liveBytes += int64(len(key))
	}
	for j := 0; j < len(v.Array); j += 2 {
		if v.Array[j].Kind != resp.BulkString || v.Array[j+1].Kind != resp.BulkString {
			a.note(badValue, "HGETALL %s: malformed reply", key)
			continue
		}
		f, val := v.Array[j].Str, v.Array[j+1].Str
		a.liveBytes += int64(len(f) + len(val))
		conn, idx, ok := b.parseField(string(f))
		if !ok {
			a.note(badValue, "%s: unknown field %q", key, f)
			continue
		}
		seen[conn*w.fieldsPerConn+idx] = true
		tag, ok := parseValue(val, key, string(f), w.fieldSize)
		acked := b.hAcked[b.hslot(uint32(h), conn, uint8(idx))]
		switch {
		case !ok || tag.writer != byte('0'+conn) || tag.seq > acked:
			a.note(badValue, "%s %s: value was never acknowledged", key, f)
		case tag.seq < acked:
			a.note(lostField, "%s %s: acked HSET %d is lost (holds %d)", key, f, acked, tag.seq)
		}
	}
	for conn := 0; conn < b.conns; conn++ {
		for idx := 0; idx < w.fieldsPerConn; idx++ {
			if !seen[conn*w.fieldsPerConn+idx] && b.hAcked[b.hslot(uint32(h), conn, uint8(idx))] > 0 {
				a.note(lostField, "%s %s: acked HSET is lost (field missing)", key, b.ks.fields[conn][idx])
			}
		}
	}
}

// parseField maps a field name back to its owning connection and index.
func (b *books) parseField(f string) (conn, idx int, ok bool) {
	for c, names := range b.ks.fields {
		for i, name := range names {
			if name == f {
				return c, i, true
			}
		}
	}
	return 0, 0, false
}
