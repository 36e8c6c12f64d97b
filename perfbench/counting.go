package main

import (
	"sync/atomic"
	"time"

	"abase/internal/clock"
	"abase/internal/lavastore"
)

// countingClock forwards every call to inner and counts Sleep calls,
// the time they asked for, and the time they took on inner's clock.
// The traced run passes one as ClusterConfig.Clock.
type countingClock struct {
	inner     clock.Clock
	sleeps    atomic.Int64
	requested atomic.Int64 // ns
	slept     atomic.Int64 // ns
}

func (c *countingClock) Now() time.Time                         { return c.inner.Now() }
func (c *countingClock) After(d time.Duration) <-chan time.Time { return c.inner.After(d) }
func (c *countingClock) Since(t time.Time) time.Duration        { return c.inner.Since(t) }

func (c *countingClock) Sleep(d time.Duration) {
	start := c.inner.Now()
	c.inner.Sleep(d)
	c.slept.Add(int64(c.inner.Since(start)))
	c.requested.Add(int64(d))
	c.sleeps.Add(1)
}

// fsCounts is a snapshot of a countingFS.
type fsCounts struct {
	writes, writeBytes, reads, readBytes, syncs int64
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{a.writes - b.writes, a.writeBytes - b.writeBytes,
		a.reads - b.reads, a.readBytes - b.readBytes, a.syncs - b.syncs}
}

// countingFS forwards every call to inner and counts the writes, reads
// and syncs made on the files it hands out. The traced run passes one
// as ClusterConfig.FS.
type countingFS struct {
	inner                                       lavastore.FS
	writes, writeBytes, reads, readBytes, syncs atomic.Int64
}

func (fs *countingFS) counts() fsCounts {
	return fsCounts{fs.writes.Load(), fs.writeBytes.Load(), fs.reads.Load(), fs.readBytes.Load(), fs.syncs.Load()}
}

func (fs *countingFS) Create(name string) (lavastore.File, error) {
	return fs.wrap(fs.inner.Create(name))
}

func (fs *countingFS) Open(name string) (lavastore.File, error) {
	return fs.wrap(fs.inner.Open(name))
}

func (fs *countingFS) wrap(f lavastore.File, err error) (lavastore.File, error) {
	if err != nil {
		return f, err
	}
	return &countingFile{File: f, fs: fs}, nil
}

func (fs *countingFS) Remove(name string) error             { return fs.inner.Remove(name) }
func (fs *countingFS) List(dir string) ([]string, error)    { return fs.inner.List(dir) }
func (fs *countingFS) Rename(oldname, newname string) error { return fs.inner.Rename(oldname, newname) }

type countingFile struct {
	lavastore.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.reads.Add(1)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}
