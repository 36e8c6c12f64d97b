package main

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"abase/internal/lavastore"
)

// scriptClock is a fake clock whose Sleep takes twice what it is asked
// for and that logs every call it receives.
type scriptClock struct {
	now   time.Time
	calls []string
}

func (c *scriptClock) Now() time.Time {
	c.calls = append(c.calls, "Now")
	return c.now
}

func (c *scriptClock) Sleep(d time.Duration) {
	c.calls = append(c.calls, fmt.Sprintf("Sleep(%v)", d))
	c.now = c.now.Add(2 * d)
}

func (c *scriptClock) After(d time.Duration) <-chan time.Time {
	c.calls = append(c.calls, fmt.Sprintf("After(%v)", d))
	ch := make(chan time.Time, 1)
	ch <- c.now.Add(d)
	return ch
}

func (c *scriptClock) Since(t time.Time) time.Duration {
	c.calls = append(c.calls, "Since")
	return c.now.Sub(t)
}

func TestCountingClock(t *testing.T) {
	inner := &scriptClock{now: time.Unix(100, 0)}
	c := &countingClock{inner: inner}
	if got := c.Now(); !got.Equal(time.Unix(100, 0)) {
		t.Errorf("Now = %v", got)
	}
	c.Sleep(3 * time.Microsecond)
	c.Sleep(5 * time.Microsecond)
	if got := <-c.After(time.Second); !got.Equal(time.Unix(101, 16000)) {
		t.Errorf("After delivered %v", got)
	}
	if got := c.Since(time.Unix(100, 0)); got != 16*time.Microsecond {
		t.Errorf("Since = %v", got)
	}
	if c.sleeps.Load() != 2 || c.requested.Load() != int64(8*time.Microsecond) || c.slept.Load() != int64(16*time.Microsecond) {
		t.Errorf("counts sleeps=%d requested=%d slept=%d, want 2, 8µs, 16µs",
			c.sleeps.Load(), c.requested.Load(), c.slept.Load())
	}
	// Each Sleep is bracketed by the Now and Since that time it.
	want := []string{"Now", "Now", "Sleep(3µs)", "Since", "Now", "Sleep(5µs)", "Since", "After(1s)", "Since"}
	if !slices.Equal(inner.calls, want) {
		t.Errorf("inner saw %v, want %v", inner.calls, want)
	}
}

// logFS is a MemFS that logs the calls it receives.
type logFS struct {
	*lavastore.MemFS
	calls []string
}

func (fs *logFS) Create(name string) (lavastore.File, error) {
	fs.calls = append(fs.calls, "Create "+name)
	return fs.MemFS.Create(name)
}

func (fs *logFS) Open(name string) (lavastore.File, error) {
	fs.calls = append(fs.calls, "Open "+name)
	return fs.MemFS.Open(name)
}

func (fs *logFS) Remove(name string) error {
	fs.calls = append(fs.calls, "Remove "+name)
	return fs.MemFS.Remove(name)
}

func (fs *logFS) Rename(a, b string) error {
	fs.calls = append(fs.calls, "Rename "+a+" "+b)
	return fs.MemFS.Rename(a, b)
}

func (fs *logFS) List(dir string) ([]string, error) {
	fs.calls = append(fs.calls, "List "+dir)
	return fs.MemFS.List(dir)
}

func TestCountingFS(t *testing.T) {
	inner := &logFS{MemFS: lavastore.NewMemFS()}
	fs := &countingFS{inner: inner}
	f, err := fs.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"hello", "xy"} {
		if n, err := f.Write([]byte(p)); n != len(p) || err != nil {
			t.Fatalf("Write(%q) = %d, %v", p, n, err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("d/a", "d/b"); err != nil {
		t.Fatal(err)
	}
	if names, err := fs.List("d"); err != nil || !slices.Equal(names, []string{"b"}) {
		t.Fatalf("List = %v, %v", names, err)
	}
	g, err := fs.Open("d/b")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if n, err := g.ReadAt(buf, 1); n != 4 || err != nil || !bytes.Equal(buf, []byte("elloxy"[:4])) {
		t.Fatalf("ReadAt = %d %q %v", n, buf, err)
	}
	if size, err := g.Size(); size != 7 || err != nil {
		t.Fatalf("Size = %d, %v", size, err)
	}
	if _, err := fs.Open("d/missing"); err == nil {
		t.Error("Open of a missing file succeeded")
	}
	if err := fs.Remove("d/b"); err != nil {
		t.Fatal(err)
	}
	want := []string{"Create d/a", "Rename d/a d/b", "List d", "Open d/b", "Open d/missing", "Remove d/b"}
	if !slices.Equal(inner.calls, want) {
		t.Errorf("inner saw %v, want %v", inner.calls, want)
	}
	if got, want := fs.counts(), (fsCounts{writes: 2, writeBytes: 7, reads: 1, readBytes: 4, syncs: 1}); got != want {
		t.Errorf("counts %+v, want %+v", got, want)
	}
}
