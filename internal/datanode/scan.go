package datanode

import (
	"context"
	"time"

	"abase/internal/lavastore"
	"abase/internal/partition"
	"abase/internal/ru"
	"abase/internal/wfq"
)

// ScanOptions bounds one partition range-scan sub-request.
type ScanOptions struct {
	// Start is the inclusive resume key; nil scans from the partition's
	// first key.
	Start []byte
	// Limit caps the entries returned (default lavastore.DefaultScanLimit).
	Limit int
	// KeysOnly strips values from the reply (KEYS/DBSIZE traffic). The
	// engine still reads the records, so admission and billing are
	// unchanged; only the transferred payload shrinks.
	KeysOnly bool
}

// ScanResult reports one completed partition sub-scan.
type ScanResult struct {
	// Entries holds the live pairs found, in ascending key order
	// (values nil under KeysOnly).
	Entries []lavastore.ScanEntry
	// NextKey is the inclusive resume key for the next sub-scan of this
	// partition, or nil when the partition is exhausted.
	NextKey []byte
	// Examined counts merged records the engine visited, including
	// skipped tombstones and expired records.
	Examined int
	// RU is the charge billed for the page.
	RU      float64
	Latency time.Duration
}

// RangeScan reads one bounded page of the hosted replica of pid in
// ascending key order, flowing through the full isolation pipeline
// exactly like a point read: one request-queue admission, a partition
// quota charge at the scan estimate, and a large-read WFQ task whose
// I/O stage burns time proportional to the records examined. Scans
// bypass the SA-LRU (a range traversal would only churn it), so the
// CPU stage always proceeds to the I/O layer.
func (n *Node) RangeScan(ctx context.Context, pid partition.ID, opts ScanOptions) (ScanResult, error) {
	if opts.Limit <= 0 {
		opts.Limit = lavastore.DefaultScanLimit
	}
	ios := 1 + float64(opts.Limit)/scanEntriesPerIO
	// Scans heat the partition in IO-equivalent units per page but mark
	// no individual key hot: a range traversal says nothing about
	// per-key popularity.
	s, err := n.open(ctx, pid, false, 0, func(r *replica) { r.heat.Add(ios) })
	if err != nil {
		return ScanResult{}, err
	}
	s.class, s.cost, s.iops = wfq.LargeRead, s.est.EstimateScanRU(opts.Limit), ios
	var page lavastore.ScanPage
	s.io = func() time.Duration {
		scan := s.rep.db.ScanRange
		if opts.KeysOnly {
			// Value-free variant: no value bytes are copied, billing
			// unchanged (the engine read the records either way).
			scan = s.rep.db.ScanRangeKeys
		}
		var err error
		if page, err = scan(opts.Start, nil, opts.Limit); err != nil {
			s.err = err
		} else {
			s.ru, s.ok = ru.ScanRU(int(page.Bytes), page.Examined), 1
		}
		// Sequential reads amortize across the sparse-index granularity:
		// one simulated disk read covers a block of examined records.
		return time.Duration(1+page.Examined/scanEntriesPerIO) * n.cfg.Cost.IOReadTime
	}
	lat := n.exec(ctx, s)
	if s.err != nil {
		return ScanResult{Latency: lat}, s.err
	}
	return ScanResult{
		Entries:  page.Entries,
		NextKey:  page.NextKey,
		Examined: page.Examined,
		RU:       s.ru,
		Latency:  lat,
	}, nil
}

// scanEntriesPerIO is how many sequential records one simulated disk
// read covers during a range scan (the SSTable sparse-index interval).
const scanEntriesPerIO = 16
