package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestFileStoreReadFailsOnCutFile cuts a store's page file from outside,
// to nothing and to a length inside a page, and reads the page: Read must
// fail both times, never hand back a zero-padded page, and the process
// must survive. On linux the read copies from a mapping of the file, and
// the bytes past the cut fault (the page spans two OS pages past it);
// elsewhere the pread comes back short.
func TestFileStoreReadFailsOnCutFile(t *testing.T) {
	size := 2 * os.Getpagesize()
	for _, cut := range []int64{0, slotHeader + 100} {
		path := filepath.Join(t.TempDir(), "pages.db")
		fs, err := OpenFileStore(path)
		if err != nil {
			t.Fatal(err)
		}
		id, err := fs.Allocate(size)
		if err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{0x5A}, size)
		if err := fs.Write(id, want); err != nil {
			t.Fatal(err)
		}
		if got, err := fs.Read(id); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("cut %d: Read before the cut = %v", cut, err)
		}
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		if got, err := fs.Read(id); err == nil {
			t.Errorf("cut %d: Read of a %d-byte page = %d bytes, nil error; want an error", cut, size, len(got))
		}
		fs.Close()
	}
}

// shortFile serves reads as a file of limit bytes would.
type shortFile struct {
	File
	limit int64
}

func (f shortFile) ReadAt(p []byte, off int64) (int, error) {
	if off+int64(len(p)) <= f.limit {
		return f.File.ReadAt(p, off)
	}
	n, _ := f.File.ReadAt(p[:max(0, f.limit-off)], off)
	return n, io.EOF
}

// TestFileStoreReadFailsOnShortRead pins the short-read rule on every
// platform: a page whose read comes back short with io.EOF fails with
// io.ErrUnexpectedEOF.
func TestFileStoreReadFailsOnShortRead(t *testing.T) {
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	id, err := fs.Allocate(1024)
	if err != nil {
		t.Fatal(err)
	}
	fs.f = shortFile{File: fs.f, limit: slotHeader + 100}
	if got, err := fs.Read(id); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short Read = %d bytes, %v; want io.ErrUnexpectedEOF", len(got), err)
	}
}
