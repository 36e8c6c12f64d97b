package lavastore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// SSTable layout:
//
//	entries:  repeated { klen uvarint | rlen uvarint | key | record }
//	index:    count uvarint, repeated { klen uvarint | key | offset uvarint }
//	          (one index entry per indexInterval entries; offset is the
//	          file offset of the entry)
//	bloom:    blen uvarint | marshaled bloom filter
//	footer:   indexOff u64 LE | bloomOff u64 LE | entryCount u64 LE | magic u64 LE
const (
	sstMagic      = 0x4142617365535354 // "ABaseSST"
	indexInterval = 16
	footerSize    = 32
)

// tableWriter streams sorted key/record pairs into an SSTable file.
type tableWriter struct {
	f        File
	off      int64
	count    int
	index    []indexEntry
	keys     [][]byte // retained for the bloom filter
	lastKey  []byte
	firstKey []byte
}

type indexEntry struct {
	key []byte
	off int64
}

func newTableWriter(f File) *tableWriter { return &tableWriter{f: f} }

// Add appends a key/record pair. Keys must be added in strictly
// ascending order.
func (w *tableWriter) Add(key []byte, rec []byte) error {
	if w.lastKey != nil && bytes.Compare(key, w.lastKey) <= 0 {
		return fmt.Errorf("lavastore: sstable keys out of order: %q after %q", key, w.lastKey)
	}
	if w.count%indexInterval == 0 {
		w.index = append(w.index, indexEntry{key: append([]byte(nil), key...), off: w.off})
	}
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(key)))
	n += binary.PutUvarint(hdr[n:], uint64(len(rec)))
	for _, chunk := range [][]byte{hdr[:n], key, rec} {
		m, err := w.f.Write(chunk)
		if err != nil {
			return err
		}
		w.off += int64(m)
	}
	kcopy := append([]byte(nil), key...)
	w.keys = append(w.keys, kcopy)
	w.lastKey = kcopy
	if w.firstKey == nil {
		w.firstKey = kcopy
	}
	w.count++
	return nil
}

// Finish writes the index, bloom filter, and footer, then syncs.
func (w *tableWriter) Finish() error {
	indexOff := w.off
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(w.index)))
	for _, e := range w.index {
		buf = binary.AppendUvarint(buf, uint64(len(e.key)))
		buf = append(buf, e.key...)
		buf = binary.AppendUvarint(buf, uint64(e.off))
	}
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	w.off += int64(len(buf))

	bloomOff := w.off
	bf := newBloomFilter(len(w.keys))
	for _, k := range w.keys {
		bf.Add(k)
	}
	bb := bf.Marshal()
	var blen []byte
	blen = binary.AppendUvarint(blen, uint64(len(bb)))
	if _, err := w.f.Write(blen); err != nil {
		return err
	}
	if _, err := w.f.Write(bb); err != nil {
		return err
	}
	w.off += int64(len(blen) + len(bb))

	var footer [footerSize]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint64(footer[8:16], uint64(bloomOff))
	binary.LittleEndian.PutUint64(footer[16:24], uint64(w.count))
	binary.LittleEndian.PutUint64(footer[24:32], sstMagic)
	if _, err := w.f.Write(footer[:]); err != nil {
		return err
	}
	return w.f.Sync()
}

// Table is an open, readable SSTable. The sparse index and bloom filter
// are resident in memory; entry data is read on demand.
type Table struct {
	f        File
	index    []indexEntry
	bloom    *bloomFilter
	count    int
	dataEnd  int64 // offset where entries stop (== indexOff)
	name     string
	sizeB    int64
	firstKey []byte
	lastKey  []byte
}

var errBadTable = errors.New("lavastore: bad sstable")

// openTable parses the footer, index, and bloom filter of an SSTable.
func openTable(f File, name string) (*Table, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if size < footerSize {
		return nil, fmt.Errorf("%w: file too small", errBadTable)
	}
	var footer [footerSize]byte
	if _, err := f.ReadAt(footer[:], size-footerSize); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(footer[24:32]) != sstMagic {
		return nil, fmt.Errorf("%w: bad magic", errBadTable)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:8]))
	bloomOff := int64(binary.LittleEndian.Uint64(footer[8:16]))
	count := int(binary.LittleEndian.Uint64(footer[16:24]))
	if indexOff < 0 || bloomOff < indexOff || bloomOff > size-footerSize {
		return nil, fmt.Errorf("%w: bad section offsets", errBadTable)
	}

	idxBuf := make([]byte, bloomOff-indexOff)
	if _, err := io.ReadFull(io.NewSectionReader(f, indexOff, int64(len(idxBuf))), idxBuf); err != nil {
		return nil, err
	}
	n, sz := binary.Uvarint(idxBuf)
	if sz <= 0 {
		return nil, fmt.Errorf("%w: bad index count", errBadTable)
	}
	idxBuf = idxBuf[sz:]
	index := make([]indexEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		klen, s := binary.Uvarint(idxBuf)
		if s <= 0 || uint64(len(idxBuf)) < uint64(s)+klen {
			return nil, fmt.Errorf("%w: bad index entry", errBadTable)
		}
		key := idxBuf[s : s+int(klen)]
		idxBuf = idxBuf[s+int(klen):]
		off, s2 := binary.Uvarint(idxBuf)
		if s2 <= 0 {
			return nil, fmt.Errorf("%w: bad index offset", errBadTable)
		}
		idxBuf = idxBuf[s2:]
		index = append(index, indexEntry{key: key, off: int64(off)})
	}

	bloomBuf := make([]byte, size-footerSize-bloomOff)
	if _, err := io.ReadFull(io.NewSectionReader(f, bloomOff, int64(len(bloomBuf))), bloomBuf); err != nil {
		return nil, err
	}
	blen, s := binary.Uvarint(bloomBuf)
	if s <= 0 || uint64(len(bloomBuf)) < uint64(s)+blen {
		return nil, fmt.Errorf("%w: bad bloom", errBadTable)
	}
	bloom := unmarshalBloom(bloomBuf[s : s+int(blen)])

	t := &Table{
		f:       f,
		index:   index,
		bloom:   bloom,
		count:   count,
		dataEnd: indexOff,
		name:    name,
		sizeB:   size,
	}
	if len(index) > 0 {
		t.firstKey = index[0].key
	}
	return t, nil
}

// Get looks up key. It returns the encoded record, whether the key is
// present, and the number of simulated disk reads performed (0 when the
// bloom filter rejects, 1 when the entry region was scanned).
func (t *Table) Get(key []byte) (rec []byte, found bool, ioReads int, err error) {
	if !t.bloom.MayContain(key) {
		return nil, false, 0, nil
	}
	// Binary search the sparse index for the last entry with key <= target.
	lo, hi := 0, len(t.index)-1
	pos := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if bytes.Compare(t.index[mid].key, key) <= 0 {
			pos = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if pos < 0 {
		return nil, false, 1, nil // bloom false positive before first key
	}
	start := t.index[pos].off
	end := t.dataEnd
	if pos+1 < len(t.index) {
		end = t.index[pos+1].off
	}
	buf := make([]byte, end-start)
	// ReadAt may report io.EOF alongside a full read that ends the data.
	if n, err := t.f.ReadAt(buf, start); n < len(buf) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, false, 1, fmt.Errorf("lavastore: read %s: %w", t.name, err)
	}
	for len(buf) > 0 {
		klen, s := binary.Uvarint(buf)
		if s <= 0 {
			return nil, false, 1, fmt.Errorf("%w: entry klen in %s", errBadTable, t.name)
		}
		buf = buf[s:]
		rlen, s := binary.Uvarint(buf)
		if s <= 0 {
			return nil, false, 1, fmt.Errorf("%w: entry rlen in %s", errBadTable, t.name)
		}
		buf = buf[s:]
		if uint64(len(buf)) < klen+rlen {
			return nil, false, 1, fmt.Errorf("%w: short entry in %s", errBadTable, t.name)
		}
		ekey := buf[:klen]
		erec := buf[klen : klen+rlen]
		buf = buf[klen+rlen:]
		switch bytes.Compare(ekey, key) {
		case 0:
			return erec, true, 1, nil
		case 1:
			return nil, false, 1, nil // passed the key: absent
		}
	}
	return nil, false, 1, nil
}

// Count returns the number of entries in the table.
func (t *Table) Count() int { return t.count }

// Size returns the table file size in bytes.
func (t *Table) Size() int64 { return t.sizeB }

// Name returns the table's file name.
func (t *Table) Name() string { return t.name }

// Close releases the underlying file.
func (t *Table) Close() error { return t.f.Close() }

// tableIterator streams every entry of a table in key order.
type tableIterator struct {
	t   *Table
	off int64
	key []byte
	rec []byte
	err error
}

func (t *Table) iterator() *tableIterator { return &tableIterator{t: t} }

// Next advances the iterator, reporting false at the end or on error.
func (it *tableIterator) Next() bool {
	if it.off >= it.t.dataEnd || it.err != nil {
		return false
	}
	var hdr [2 * binary.MaxVarintLen64]byte
	hn, _ := io.NewSectionReader(it.t.f, it.off, int64(len(hdr))).Read(hdr[:])
	klen, s := binary.Uvarint(hdr[:hn])
	if s <= 0 {
		it.err = fmt.Errorf("%w: iterator klen", errBadTable)
		return false
	}
	rlen, s2 := binary.Uvarint(hdr[s:hn])
	if s2 <= 0 {
		it.err = fmt.Errorf("%w: iterator rlen", errBadTable)
		return false
	}
	dataOff := it.off + int64(s+s2)
	buf := make([]byte, klen+rlen)
	if _, err := io.ReadFull(io.NewSectionReader(it.t.f, dataOff, int64(len(buf))), buf); err != nil {
		it.err = err
		return false
	}
	it.key = buf[:klen]
	it.rec = buf[klen:]
	it.off = dataOff + int64(klen+rlen)
	return true
}

// seek positions the iterator at the first entry with key >= target,
// reporting whether one exists. A nil or empty target positions at the
// first entry. The sparse index narrows the starting offset so only one
// index block is walked.
func (it *tableIterator) seek(target []byte) bool {
	it.off = 0
	it.err = nil
	if len(target) > 0 {
		// Binary search for the last sparse-index entry with key <=
		// target; entries before its offset are all < target.
		lo, hi, pos := 0, len(it.t.index)-1, -1
		for lo <= hi {
			mid := (lo + hi) / 2
			if bytes.Compare(it.t.index[mid].key, target) <= 0 {
				pos = mid
				lo = mid + 1
			} else {
				hi = mid - 1
			}
		}
		if pos >= 0 {
			it.off = it.t.index[pos].off
		}
	}
	for it.Next() {
		if len(target) == 0 || bytes.Compare(it.key, target) >= 0 {
			return true
		}
	}
	return false
}

func (it *tableIterator) Key() []byte { return it.key }
func (it *tableIterator) Rec() []byte { return it.rec }
func (it *tableIterator) Err() error  { return it.err }
