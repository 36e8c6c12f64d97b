package lavastore

import (
	"bytes"
	"testing"
)

// checkMemFile compares f's Size and ReadAt against a bytes.Reader over
// ref, at offsets and lengths around chunk boundaries and the end.
func checkMemFile(t *testing.T, f File, ref []byte) {
	t.Helper()
	want := bytes.NewReader(ref)
	size, err := f.Size()
	if err != nil || size != int64(len(ref)) {
		t.Fatalf("Size = %d, %v; want %d", size, err, len(ref))
	}
	c := int64(memChunkSize)
	offs := []int64{0, 1, c - 1, c, c + 1, 2*c - 3, 2 * c, size - 1, size, size + 1, size + c}
	lens := []int{0, 1, 7, memChunkSize - 1, memChunkSize, memChunkSize + 5, 3 * memChunkSize}
	for _, off := range offs {
		if off < 0 {
			continue
		}
		for _, n := range lens {
			p, q := make([]byte, n), make([]byte, n)
			got, err := f.ReadAt(p, off)
			wantN, wantErr := want.ReadAt(q, off)
			if got != wantN || err != wantErr {
				t.Fatalf("ReadAt(len %d, off %d) = %d, %v; want %d, %v", n, off, got, err, wantN, wantErr)
			}
			if !bytes.Equal(p[:got], q[:wantN]) {
				t.Fatalf("ReadAt(len %d, off %d) returned the wrong bytes", n, off)
			}
		}
	}
}

func TestMemFileMatchesBytesReader(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("d/f")
	if err != nil {
		t.Fatal(err)
	}
	checkMemFile(t, f, nil) // empty file

	var ref []byte
	// Write sizes chosen to land on, just short of, and across chunk
	// boundaries, including a single write spanning several chunks.
	sizes := []int{1, memChunkSize - 2, 1, 1, 3, memChunkSize, 2*memChunkSize + 11, 0, 17, memChunkSize - 17 - 11}
	for i, n := range sizes {
		p := make([]byte, n)
		for j := range p {
			p[j] = byte(i*31 + j*7)
		}
		if m, err := f.Write(p); m != n || err != nil {
			t.Fatalf("Write(%d bytes) = %d, %v", n, m, err)
		}
		ref = append(ref, p...)
		checkMemFile(t, f, ref)
	}
	// Opening the file again reads the same bytes.
	g, err := fs.Open("d/f")
	if err != nil {
		t.Fatal(err)
	}
	checkMemFile(t, g, ref)
}

func TestMemFileChunksAreStable(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.Create("d/f")
	mf := fs.files["d/f"]
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	first := &mf.chunks[0][0]
	buf := make([]byte, 1000)
	for i := 0; i < 5*memChunkSize/len(buf); i++ {
		f.Write(buf)
		// An append never moves bytes already written, and the file
		// never holds a whole chunk of slack.
		if &mf.chunks[0][0] != first {
			t.Fatal("a write moved the file's first chunk")
		}
		if slack := int64(len(mf.chunks))*memChunkSize - mf.size; slack < 0 || slack >= memChunkSize {
			t.Fatalf("slack %d bytes with %d chunks for size %d", slack, len(mf.chunks), mf.size)
		}
	}
}

func TestMemFileNegativeOffset(t *testing.T) {
	f, _ := NewMemFS().Create("d/f")
	f.Write([]byte("abc"))
	if n, err := f.ReadAt(make([]byte, 1), -1); n != 0 || err == nil {
		t.Fatalf("ReadAt(-1) = %d, %v; want an error", n, err)
	}
}
