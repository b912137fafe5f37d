package store_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"segidx/internal/page"
	"segidx/internal/store"
)

// TestReadReturnsFreshBuffer pins the Read contract the buffer pool keeps
// page images on: every Read returns a freshly allocated slice that the
// store never touches again. Two Reads of one page share no memory,
// scribbling over a returned slice changes neither the page nor a later
// Read, and a later Write of the page leaves an earlier result alone. Each
// store is read while the page is pending in its batch and once it is
// committed.
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
		})
	}
}

func readPage(t *testing.T, s store.Store, id page.ID) []byte {
	t.Helper()
	buf, err := s.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}
