package store_test

import (
	"path/filepath"
	"testing"

	"segidx/internal/page"
	"segidx/internal/store"
	"segidx/internal/store/faultstore"
)

// TestPageIDsNeverRepeat pins the ID contract of store.Store that the
// buffer pool's page table relies on: across allocations, frees of the
// lowest and the highest IDs, and a close and reopen where the store has a
// file, no page ID is handed out twice.
func TestPageIDsNeverRepeat(t *testing.T) {
	dir := t.TempDir()
	disk := faultstore.NewDisk()
	for _, c := range []struct {
		name string
		open func() (store.Store, error)
		// reopens is how often the store is closed and opened again.
		reopens int
	}{
		{"mem", func() (store.Store, error) { return store.NewMemStore(), nil }, 0},
		{"file", func() (store.Store, error) { return store.OpenFileStore(filepath.Join(dir, "f.db")) }, 2},
		{"wal", func() (store.Store, error) { return store.OpenWALStore(filepath.Join(dir, "w.db")) }, 2},
		{"faultstore-file", func() (store.Store, error) { return store.OpenFileStoreIn(disk, "f.db") }, 2},
		{"faultstore-wal", func() (store.Store, error) { return store.OpenWALStoreIn(disk, "w.db") }, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			seen := make(map[page.ID]bool)
			for round := 0; round <= c.reopens; round++ {
				s, err := c.open()
				if err != nil {
					t.Fatal(err)
				}
				commit := func() {
					if w, ok := s.(interface{ Commit() error }); ok {
						if err := w.Commit(); err != nil {
							t.Fatal(err)
						}
					}
				}
				alloc := func(n int) []page.ID {
					var ids []page.ID
					for i := 0; i < n; i++ {
						id, err := s.Allocate(64)
						if err != nil {
							t.Fatal(err)
						}
						if seen[id] {
							t.Fatalf("round %d: Allocate returned %v a second time", round, id)
						}
						seen[id] = true
						ids = append(ids, id)
					}
					commit()
					return ids
				}
				ids := alloc(4)
				// Free the lowest and the two highest IDs: the highest is
				// what a reopen must not hand out again.
				for _, id := range []page.ID{ids[0], ids[2], ids[3]} {
					if err := s.Free(id); err != nil {
						t.Fatal(err)
					}
				}
				commit()
				alloc(3)
				last := alloc(1)[0]
				if err := s.Free(last); err != nil {
					t.Fatal(err)
				}
				commit()
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
