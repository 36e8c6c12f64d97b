package lavastore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// File is the random-access file abstraction SSTables are written to
// and read from.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Sync flushes buffered data to stable storage.
	Sync() error
	// Size returns the current file length in bytes.
	Size() (int64, error)
}

// FS abstracts the filesystem so the engine can run on the OS
// filesystem (production, crash recovery tests) or fully in memory
// (simulation, fast tests).
type FS interface {
	// Create truncates or creates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// Remove deletes the named file.
	Remove(name string) error
	// List returns the names of all files in the directory, sorted.
	List(dir string) ([]string, error)
	// Rename atomically renames a file.
	Rename(oldname, newname string) error
}

// --- OS filesystem ---

// OSFS is an FS backed by the operating system.
type OSFS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Open implements FS.
func (OSFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// List implements FS.
func (OSFS) List(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// --- In-memory filesystem ---

// MemFS is an FS held entirely in memory. Safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

// memChunkSize is the fixed size of the chunks a MemFS file keeps its
// bytes in. Appends fill the last chunk and then add fresh ones, so a
// write never copies existing data and a file's slack is under one
// chunk; reads locate their first chunk by division.
const memChunkSize = 64 << 10

type memFile struct {
	mu     sync.RWMutex
	chunks [][]byte // each memChunkSize long; all but the last are full
	size   int64
}

func (f *memFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(p)
	for len(p) > 0 {
		if f.size == int64(len(f.chunks))*memChunkSize {
			f.chunks = append(f.chunks, make([]byte, memChunkSize))
		}
		m := copy(f.chunks[len(f.chunks)-1][f.size%memChunkSize:], p)
		p = p[m:]
		f.size += int64(m)
	}
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if off < 0 {
		return 0, errors.New("lavastore: memfs: negative offset")
	}
	if off >= f.size {
		return 0, io.EOF
	}
	want := len(p)
	if rest := f.size - off; int64(want) > rest {
		want = int(rest)
	}
	n := 0
	for n < want {
		pos := off + int64(n)
		n += copy(p[n:want], f.chunks[pos/memChunkSize][pos%memChunkSize:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Close() error { return nil }
func (f *memFile) Sync() error  { return nil }
func (f *memFile) Size() (int64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.size, nil
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{}
	m.files[name] = f
	return f, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("lavastore: memfs: %s: %w", name, os.ErrNotExist)
	}
	return f, nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("lavastore: memfs: %s: %w", name, os.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("lavastore: memfs: %s: %w", oldname, os.ErrNotExist)
	}
	m.files[newname] = f
	delete(m.files, oldname)
	return nil
}

// List implements FS.
func (m *MemFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := dir
	if prefix != "" && !bytes.HasSuffix([]byte(prefix), []byte("/")) {
		prefix += "/"
	}
	var names []string
	for name := range m.files {
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			rest := name[len(prefix):]
			if !bytes.ContainsRune([]byte(rest), '/') {
				names = append(names, rest)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}
