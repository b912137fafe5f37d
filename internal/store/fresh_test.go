package store_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"segidx/internal/page"
	"segidx/internal/store"
)

// TestReadReturnsFreshBuffer pins the Read contract the buffer pool keeps
// page images on: every Read returns a slice that the store never touches
// again. Two Reads of one page share no memory, scribbling over a returned
// slice changes neither the page nor a later Read, and a later Write of
// the page leaves an earlier result alone. Each store is read while the
// page is pending in its batch and once it is committed. A buffer handed
// back through Recycle comes back only from a later Read of a page of its
// size, overwritten whole; a failed Read hands out nothing it half
// filled; and Recycle of a nil or resliced buffer is harmless.
func TestReadReturnsFreshBuffer(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		open func() (store.Store, error)
	}{
		{"mem", func() (store.Store, error) { return store.NewMemStore(), nil }},
		{"file", func() (store.Store, error) { return store.OpenFileStore(filepath.Join(dir, "f.db")) }},
		{"wal", func() (store.Store, error) { return store.OpenWALStore(filepath.Join(dir, "w.db")) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := c.open()
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			id, err := s.Allocate(64)
			if err != nil {
				t.Fatal(err)
			}
			data := bytes.Repeat([]byte{0xA5}, 64)
			if err := s.Write(id, data); err != nil {
				t.Fatal(err)
			}
			check := func(stage string) {
				t.Helper()
				a := readPage(t, s, id)
				b := readPage(t, s, id)
				if !bytes.Equal(a, data) || !bytes.Equal(b, data) {
					t.Fatalf("%s: Read returned %x and %x, want %x", stage, a, b, data)
				}
				a = a[:cap(a)]
				for i := range a {
					a[i] = ^a[i]
				}
				if !bytes.Equal(b, data) {
					t.Fatalf("%s: scribbling over one Read's slice changed another's", stage)
				}
				if got := readPage(t, s, id); !bytes.Equal(got, data) {
					t.Fatalf("%s: scribbling over a Read's slice changed the page to %x", stage, got)
				}
			}
			check("pending")
			if w, ok := s.(interface{ Commit() error }); ok {
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			check("committed")

			// A later Write leaves an earlier Read's slice as it was.
			before := readPage(t, s, id)
			next := bytes.Repeat([]byte{0x3C}, 64)
			if err := s.Write(id, next); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, data) {
				t.Fatalf("a Write changed an earlier Read's slice to %x", before)
			}
			data = next
			check("rewritten")

			other, err := s.Allocate(96)
			if err != nil {
				t.Fatal(err)
			}
			otherData := bytes.Repeat([]byte{0x77}, 96)
			if err := s.Write(other, otherData); err != nil {
				t.Fatal(err)
			}
			junk := bytes.Repeat([]byte{0xEE}, 64)
			store.Recycle(junk)
			if got := readPage(t, s, other); sameMemory(got, junk) || !bytes.Equal(got, otherData) {
				t.Fatal("a Read of a 96-byte page returned a recycled 64-byte buffer")
			}
			if _, err := s.Read(id + 1000); !errors.Is(err, store.ErrNotFound) {
				t.Fatalf("Read of a missing page = %v, want ErrNotFound", err)
			}
			if got := readPage(t, s, id); !sameMemory(got, junk) || !bytes.Equal(got, data) {
				t.Fatalf("Read after Recycle: reused %v, %x; want the recycled buffer holding %x",
					sameMemory(got, junk), got, data)
			}
			odd := bytes.Repeat([]byte{0xDD}, 128)[:64]
			store.Recycle(nil)
			store.Recycle([]byte{})
			store.Recycle(odd)
			if got := readPage(t, s, id); sameMemory(got, odd) || !bytes.Equal(got, data) {
				t.Fatal("a resliced buffer came back from Read")
			}
		})
	}

	// A Read that fails on a page file cut behind the store's back may
	// have filled part of its buffer; the next Read of that size must
	// still return its own page whole.
	t.Run("cut file", func(t *testing.T) {
		size := 2 * os.Getpagesize()
		open := func(name string, b byte) (*store.FileStore, page.ID, []byte) {
			s, err := store.OpenFileStore(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			id, err := s.Allocate(size)
			if err != nil {
				t.Fatal(err)
			}
			data := bytes.Repeat([]byte{b}, size)
			if err := s.Write(id, data); err != nil {
				t.Fatal(err)
			}
			return s, id, data
		}
		healthy, hid, want := open("healthy.db", 0x11)
		defer healthy.Close()
		cut, cid, _ := open("cut.db", 0x22)
		defer cut.Close()
		store.Recycle(readPage(t, cut, cid))
		if err := os.Truncate(filepath.Join(dir, "cut.db"), 100); err != nil {
			t.Fatal(err)
		}
		if got, err := cut.Read(cid); err == nil {
			t.Fatalf("Read of a cut page = %d bytes, nil error", len(got))
		}
		if got := readPage(t, healthy, hid); !bytes.Equal(got, want) {
			t.Fatal("the Read after a failed one returned bytes of the failed page")
		}
	})
}

// sameMemory reports whether a and b start at the same byte.
func sameMemory(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

func readPage(t *testing.T, s store.Store, id page.ID) []byte {
	t.Helper()
	buf, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}
