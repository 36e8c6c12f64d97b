package lavastore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestWriteBatchMixedOps(t *testing.T) {
	db := openMem(t, Options{})
	db.Put([]byte("gone"), []byte("v"), 0)
	err := db.WriteBatch([]BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("gone"), Delete: true},
		{Key: []byte("b"), Value: []byte("2"), TTL: time.Hour},
		{Key: []byte("a"), Value: []byte("1b")}, // overwrite inside the batch
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := db.Get([]byte("a")); err != nil || string(got.Value) != "1b" {
		t.Fatalf("a = %q, %v", got.Value, err)
	}
	if _, err := db.Get([]byte("gone")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("gone survived: %v", err)
	}
	if ttl, err := db.TTL([]byte("b")); err != nil || ttl <= 0 || ttl > time.Hour {
		t.Fatalf("b TTL = %v, %v", ttl, err)
	}
}

// TestWriteBatchRecovery: records written through the group-committed
// path replay from the WAL exactly like per-key writes.
func TestWriteBatchRecovery(t *testing.T) {
	fs := NewMemFS()
	db, err := Open(Options{FS: fs, Dir: "d"})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]BatchOp, 20)
	for i := range ops {
		ops[i] = BatchOp{Key: []byte(fmt.Sprintf("k%02d", i)), Value: []byte(fmt.Sprintf("v%02d", i))}
	}
	if err := db.WriteBatch(ops); err != nil {
		t.Fatal(err)
	}
	// Mutate after the batch so sequence ordering crosses the modes.
	db.Put([]byte("k00"), []byte("v00-after"), 0)
	db.Close()

	db2, err := Open(Options{FS: fs, Dir: "d"})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got, err := db2.Get([]byte("k00")); err != nil || string(got.Value) != "v00-after" {
		t.Fatalf("k00 after recovery = %q, %v", got.Value, err)
	}
	for i := 1; i < 20; i++ {
		key := []byte(fmt.Sprintf("k%02d", i))
		got, err := db2.Get(key)
		if err != nil || !bytes.Equal(got.Value, []byte(fmt.Sprintf("v%02d", i))) {
			t.Fatalf("%s after recovery = %q, %v", key, got.Value, err)
		}
	}
}

// TestOverwriteWorkloadRotatesWAL: rewriting the same keys keeps the
// memtable small, but the WAL must still rotate (bounding log size and
// crash-recovery replay time). Without a retention floor the log is
// re-logged down to the memtable's records, with no flush and no
// SSTable; with one, the history must survive, so a flush rotates it.
func TestOverwriteWorkloadRotatesWAL(t *testing.T) {
	const memtable = 4 << 10
	value := bytes.Repeat([]byte("x"), 512)
	overwrite := func(db *DB) {
		t.Helper()
		for i := 0; i < 200; i++ {
			if err := db.Put([]byte("hot"), value, 0); err != nil {
				t.Fatal(err)
			}
			if db.walBytes >= 4*memtable {
				t.Fatalf("live WAL reached %d bytes", db.walBytes)
			}
		}
	}

	fs := NewMemFS()
	db := openMem(t, Options{FS: fs, Dir: "d", MemtableBytes: memtable})
	overwrite(db)
	if st := db.Stats(); st.Flushes != 0 || db.walBytes >= memtable {
		t.Fatalf("re-logged WAL: %d flushes, %d live WAL bytes", st.Flushes, db.walBytes)
	}
	// A crash now recovers the newest value from the re-logged WAL.
	db2, err := Open(Options{FS: fs, Dir: "d", MemtableBytes: memtable})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got, err := db2.Get([]byte("hot")); err != nil || !bytes.Equal(got.Value, value) {
		t.Fatalf("hot after recovery = %d bytes, %v", len(got.Value), err)
	}

	held := openMem(t, Options{MemtableBytes: memtable})
	held.SetHistoryRetention(0)
	overwrite(held)
	if held.Stats().Flushes == 0 {
		t.Fatal("overwrite-only workload under a retention floor never rotated the WAL")
	}
	if _, err := held.Replay(1, 200); err != nil {
		t.Fatalf("retained history: %v", err)
	}
}

func TestWriteBatchEmptyAndClosed(t *testing.T) {
	db := openMem(t, Options{})
	if err := db.WriteBatch(nil); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := db.WriteBatch([]BatchOp{{Key: []byte("k"), Value: []byte("v")}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed WriteBatch err = %v", err)
	}
}
