package store_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"segidx/internal/page"
	"segidx/internal/store"
)

// BenchmarkFileStoreRead reads random 1 KiB pages of an 8 MiB page file,
// the store read a cold buffer-pool miss pays. The file is in the OS page
// cache, so this is the cost of the read path itself, not of the disk.
func BenchmarkFileStoreRead(b *testing.B) {
	const pageSize, pages = 1 << 10, 8 << 10
	s, err := store.OpenFileStore(filepath.Join(b.TempDir(), "pages.db"))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ids := make([]page.ID, pages)
	data := make([]byte, pageSize)
	for i := range ids {
		if ids[i], err = s.Allocate(pageSize); err != nil {
			b.Fatal(err)
		}
		data[0] = byte(i)
		if err := s.Write(ids[i], data); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.SetBytes(pageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read(ids[rng.Intn(pages)]); err != nil {
			b.Fatal(err)
		}
	}
}
