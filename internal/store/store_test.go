package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// stores returns fresh instances of every Store implementation for
// conformance testing.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := OpenFileStore(filepath.Join(t.TempDir(), "pages.db"))
	if err != nil {
		t.Fatalf("OpenFileStore: %v", err)
	}
	ws, err := OpenWALStore(filepath.Join(t.TempDir(), "wal-pages.db"))
	if err != nil {
		t.Fatalf("OpenWALStore: %v", err)
	}
	return map[string]Store{
		"mem":  NewMemStore(),
		"file": fs,
		"wal":  ws,
	}
}

func TestStoreConformance(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()

			id, err := s.Allocate(128)
			if err != nil {
				t.Fatalf("Allocate: %v", err)
			}
			if sz, err := s.PageSize(id); err != nil || sz != 128 {
				t.Fatalf("PageSize = %d, %v", sz, err)
			}

			// Fresh pages read back zeroed.
			got, err := s.Read(id)
			if err != nil {
				t.Fatalf("Read fresh: %v", err)
			}
			if !bytes.Equal(got, make([]byte, 128)) {
				t.Error("fresh page not zeroed")
			}

			data := bytes.Repeat([]byte{0xAB}, 128)
			if err := s.Write(id, data); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got, err = s.Read(id)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("Read after write mismatch: %v", err)
			}

			// Size mismatch rejected.
			if err := s.Write(id, make([]byte, 64)); err == nil {
				t.Error("Write with wrong size accepted")
			}

			// Unknown IDs rejected.
			if _, err := s.Read(9999); !errors.Is(err, ErrNotFound) {
				t.Errorf("Read unknown = %v, want ErrNotFound", err)
			}
			if err := s.Free(9999); !errors.Is(err, ErrNotFound) {
				t.Errorf("Free unknown = %v, want ErrNotFound", err)
			}

			if s.Len() != 1 {
				t.Errorf("Len = %d, want 1", s.Len())
			}
			if err := s.Free(id); err != nil {
				t.Fatalf("Free: %v", err)
			}
			if s.Len() != 0 {
				t.Errorf("Len after free = %d, want 0", s.Len())
			}
			if _, err := s.Read(id); !errors.Is(err, ErrNotFound) {
				t.Errorf("Read freed = %v, want ErrNotFound", err)
			}

			// Mixed size classes coexist.
			a, _ := s.Allocate(1024)
			b, _ := s.Allocate(2048)
			if err := s.Write(a, bytes.Repeat([]byte{1}, 1024)); err != nil {
				t.Fatal(err)
			}
			if err := s.Write(b, bytes.Repeat([]byte{2}, 2048)); err != nil {
				t.Fatal(err)
			}
			ga, _ := s.Read(a)
			gb, _ := s.Read(b)
			if ga[0] != 1 || gb[0] != 2 || len(ga) != 1024 || len(gb) != 2048 {
				t.Error("mixed size classes corrupted")
			}

			// Closed store fails.
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, err := s.Allocate(64); !errors.Is(err, ErrClosed) {
				t.Errorf("Allocate after close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestStoreRandomizedAgainstModel(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			rng := rand.New(rand.NewSource(42))
			model := make(map[uint64][]byte) // id -> expected contents
			var ids []uint64
			sizes := []int{256, 512, 1024}
			for op := 0; op < 2000; op++ {
				switch r := rng.Intn(10); {
				case r < 4 || len(ids) == 0: // allocate
					size := sizes[rng.Intn(len(sizes))]
					id, err := s.Allocate(size)
					if err != nil {
						t.Fatalf("op %d Allocate: %v", op, err)
					}
					model[uint64(id)] = make([]byte, size)
					ids = append(ids, uint64(id))
				case r < 7: // write
					id := ids[rng.Intn(len(ids))]
					data := make([]byte, len(model[id]))
					rng.Read(data)
					if err := s.Write(pid(id), data); err != nil {
						t.Fatalf("op %d Write: %v", op, err)
					}
					model[id] = data
				case r < 9: // read + verify
					id := ids[rng.Intn(len(ids))]
					got, err := s.Read(pid(id))
					if err != nil {
						t.Fatalf("op %d Read: %v", op, err)
					}
					if !bytes.Equal(got, model[id]) {
						t.Fatalf("op %d contents diverged for id %d", op, id)
					}
				default: // free
					i := rng.Intn(len(ids))
					id := ids[i]
					if err := s.Free(pid(id)); err != nil {
						t.Fatalf("op %d Free: %v", op, err)
					}
					delete(model, id)
					ids = append(ids[:i], ids[i+1:]...)
				}
			}
			if s.Len() != len(model) {
				t.Errorf("Len = %d, model has %d", s.Len(), len(model))
			}
			for id, want := range model {
				got, err := s.Read(pid(id))
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("final verify id %d: %v", id, err)
				}
			}
		})
	}
}

func TestFileStoreReopenRecovers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	contents := map[uint64][]byte{}
	for i := 0; i < 20; i++ {
		size := 256 << uint(i%3)
		id, err := fs.Allocate(size)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{byte(i + 1)}, size)
		if err := fs.Write(id, data); err != nil {
			t.Fatal(err)
		}
		contents[uint64(id)] = data
	}
	// Free a few pages; their slots should be reusable after reopen.
	freed := []uint64{3, 7, 11}
	for _, id := range freed {
		if err := fs.Free(pid(id)); err != nil {
			t.Fatal(err)
		}
		delete(contents, id)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer fs2.Close()
	if fs2.Len() != len(contents) {
		t.Fatalf("recovered Len = %d, want %d", fs2.Len(), len(contents))
	}
	for id, want := range contents {
		got, err := fs2.Read(pid(id))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("recovered page %d mismatch: %v", id, err)
		}
	}
	// New allocations must not collide with recovered IDs and should reuse
	// freed slots of the same size.
	before := fileSize(t, path)
	id, err := fs2.Allocate(256 << uint(3%3)) // size of a freed slot? 3%3=0 -> 256
	if err != nil {
		t.Fatal(err)
	}
	if _, dup := contents[uint64(id)]; dup {
		t.Fatalf("allocated ID %d collides with live page", id)
	}
	after := fileSize(t, path)
	if after != before {
		t.Errorf("allocation of freed size grew file from %d to %d", before, after)
	}
}

func TestFileStoreTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := fs.Allocate(256)
	if err := fs.Write(id, bytes.Repeat([]byte{9}, 256)); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// Append garbage simulating a torn write.
	appendBytes(t, path, []byte{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3})

	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer fs2.Close()
	if fs2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", fs2.Len())
	}
	got, err := fs2.Read(id)
	if err != nil || got[0] != 9 {
		t.Fatalf("page lost after torn-tail recovery: %v", err)
	}
}

func TestMemStoreErrorInjection(t *testing.T) {
	m := NewMemStore()
	id, _ := m.Allocate(64)
	boom := errors.New("boom")
	m.InjectReadError(1, boom)
	if _, err := m.Read(id); !errors.Is(err, boom) {
		t.Errorf("injected read error not delivered: %v", err)
	}
	if _, err := m.Read(id); err != nil {
		t.Errorf("error injection should be one-shot: %v", err)
	}
	m.InjectWriteError(1, boom)
	if err := m.Write(id, make([]byte, 64)); !errors.Is(err, boom) {
		t.Errorf("injected write error not delivered: %v", err)
	}
}

// TestMemStoreReadErrorInjectionConcurrent arms a read fault and races
// eight Reads against it: exactly one of them fails, on every arming, and
// the countdown is race-free although Reads share the store's read lock.
func TestMemStoreReadErrorInjectionConcurrent(t *testing.T) {
	m := NewMemStore()
	id, _ := m.Allocate(64)
	boom := errors.New("boom")
	for round := 0; round < 50; round++ {
		m.InjectReadError(4, boom)
		var wg sync.WaitGroup
		var failed atomic.Int32
		start := make(chan struct{})
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, err := m.Read(id); errors.Is(err, boom) {
					failed.Add(1)
				} else if err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := failed.Load(); n != 1 {
			t.Fatalf("round %d: %d reads failed, want exactly 1", round, n)
		}
	}
}

func TestAllocateRejectsBadSize(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if _, err := s.Allocate(0); err == nil {
				t.Error("Allocate(0) accepted")
			}
			if _, err := s.Allocate(-5); err == nil {
				t.Error("Allocate(-5) accepted")
			}
		})
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			// Pre-allocate pages, then hammer them from several goroutines.
			const pages = 16
			ids := make([]uint64, pages)
			for i := range ids {
				id, err := s.Allocate(256)
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = uint64(id)
				data := bytes.Repeat([]byte{byte(i)}, 256)
				if err := s.Write(id, data); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						idx := (g + i) % pages
						if g%2 == 0 {
							got, err := s.Read(pid(ids[idx]))
							if err != nil {
								errs <- err
								return
							}
							// Contents are always a uniform fill byte
							// (no torn page).
							for _, b := range got[1:] {
								if b != got[0] {
									errs <- fmt.Errorf("torn page read")
									return
								}
							}
						} else {
							data := bytes.Repeat([]byte{byte(g*37 + i)}, 256)
							if err := s.Write(pid(ids[idx]), data); err != nil {
								errs <- err
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
