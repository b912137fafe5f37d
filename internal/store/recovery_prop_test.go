package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"segidx/internal/page"
)

// storeModel mirrors what a FileStore must rebuild on reopen: the live
// page table (id -> contents) and the freed slots (size -> count).
type storeModel struct {
	pages map[page.ID][]byte
	freed map[int]int
}

// snapshotFreeLists returns the store's free-slot offsets per size,
// sorted, for order-insensitive comparison.
func snapshotFreeLists(fs *FileStore) map[int][]int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make(map[int][]int64, len(fs.free))
	for size, offs := range fs.free {
		if len(offs) == 0 {
			continue // drained lists leave empty slices behind
		}
		s := append([]int64(nil), offs...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		out[size] = s
	}
	return out
}

// TestFileStoreRecoveryProperty drives random Allocate/Write/Free
// sequences, reopens the store, and asserts the rebuilt page table and
// free lists match the model exactly — contents, sizes, free-slot offsets,
// and the next-ID watermark.
func TestFileStoreRecoveryProperty(t *testing.T) {
	seeds := []int64{1, 7, 42, 1991, 31337}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pages.db")
			fs, err := OpenFileStore(path)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			m := storeModel{pages: make(map[page.ID][]byte), freed: make(map[int]int)}
			sizes := []int{64, 256, 1024}
			var live []page.ID
			for op := 0; op < 1500; op++ {
				switch r := rng.Intn(10); {
				case r < 4 || len(live) == 0:
					size := sizes[rng.Intn(len(sizes))]
					id, err := fs.Allocate(size)
					if err != nil {
						t.Fatalf("op %d Allocate: %v", op, err)
					}
					if m.freed[size] > 0 {
						m.freed[size]--
					}
					m.pages[id] = make([]byte, size)
					live = append(live, id)
				case r < 8:
					id := live[rng.Intn(len(live))]
					data := make([]byte, len(m.pages[id]))
					rng.Read(data)
					if err := fs.Write(id, data); err != nil {
						t.Fatalf("op %d Write: %v", op, err)
					}
					m.pages[id] = data
				default:
					i := rng.Intn(len(live))
					id := live[i]
					if err := fs.Free(id); err != nil {
						t.Fatalf("op %d Free: %v", op, err)
					}
					m.freed[len(m.pages[id])]++
					delete(m.pages, id)
					live = append(live[:i], live[i+1:]...)
				}
			}
			wantFree := snapshotFreeLists(fs)
			wantNext := fs.NextID()
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}

			fs2, err := OpenFileStore(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer fs2.Close()
			if fs2.Len() != len(m.pages) {
				t.Fatalf("recovered Len = %d, model has %d", fs2.Len(), len(m.pages))
			}
			for id, want := range m.pages {
				got, err := fs2.Read(id)
				if err != nil {
					t.Fatalf("recovered Read(%v): %v", id, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("page %v contents diverged after reopen", id)
				}
				if sz, err := fs2.PageSize(id); err != nil || sz != len(want) {
					t.Fatalf("page %v size = %d, %v; want %d", id, sz, err, len(want))
				}
			}
			gotFree := snapshotFreeLists(fs2)
			if len(gotFree) != len(wantFree) {
				t.Fatalf("free lists: got %d size classes, want %d", len(gotFree), len(wantFree))
			}
			for size, want := range wantFree {
				got := gotFree[size]
				if len(got) != len(want) {
					t.Fatalf("free[%d]: %d slots recovered, want %d", size, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("free[%d][%d] = offset %d, want %d", size, i, got[i], want[i])
					}
				}
				if m.freed[size] != len(want) {
					t.Fatalf("model freed[%d] = %d, store had %d", size, m.freed[size], len(want))
				}
			}
			// New IDs never collide with anything ever allocated.
			if next := fs2.NextID(); next < wantNext {
				t.Fatalf("recovered NextID = %v, want >= %v", next, wantNext)
			}
		})
	}
}

// goldenOps drives a fixed operation sequence whose on-disk image is
// pinned in testdata. Any change to the slot format shows up as a byte
// diff against the golden file.
func goldenOps(t *testing.T, fs *FileStore) {
	t.Helper()
	ids := make([]page.ID, 0, 6)
	for i, size := range []int{64, 128, 64, 256, 128, 64} {
		id, err := fs.Allocate(size)
		if err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{byte(0x10 + i)}, size)
		if err := fs.Write(id, data); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Free two slots (one reused below, one left on the free list).
	if err := fs.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := fs.Free(ids[4]); err != nil {
		t.Fatal(err)
	}
	// Reuse the freed 64-byte slot.
	id, err := fs.Allocate(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(id, bytes.Repeat([]byte{0xEE}, 64)); err != nil {
		t.Fatal(err)
	}
}

// goldenImage is the golden sequence as FileStore writes it today, with
// checked slot headers; legacyImage is the same sequence written before
// headers carried a check (check bytes 0), which must still open.
const (
	goldenImage = "testdata/filestore_v2.db"
	legacyImage = "testdata/filestore_v1.db"
)

// TestGoldenImageFormat regenerates the golden sequence and compares the
// raw file bytes against testdata, pinning the slot layout (magic, state
// byte, header check, size, id, body placement) against accidental format
// changes. Run with UPDATE_GOLDEN=1 to rewrite the image after a
// deliberate change.
func TestGoldenImageFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.db")
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	goldenOps(t, fs)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenImage, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenImage, len(got))
		return
	}
	want, err := os.ReadFile(goldenImage)
	if err != nil {
		t.Fatalf("missing golden image (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("on-disk format changed: image is %d bytes, golden is %d; "+
			"if the slot format change is deliberate, regenerate with UPDATE_GOLDEN=1",
			len(got), len(want))
	}
}

// TestGoldenImageRecovers opens a copy of each committed golden image and
// asserts the recovered state, proving today's scanner still reads
// yesterday's files.
func TestGoldenImageRecovers(t *testing.T) {
	for _, image := range []string{legacyImage, goldenImage} {
		t.Run(filepath.Base(image), func(t *testing.T) { goldenImageRecovers(t, image) })
	}
}

func goldenImageRecovers(t *testing.T, image string) {
	img, err := os.ReadFile(image)
	if err != nil {
		t.Fatalf("missing golden image: %v", err)
	}
	path := filepath.Join(t.TempDir(), "golden.db")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("open golden image: %v", err)
	}
	defer fs.Close()
	// Live pages: 1,2,4,6 from the build loop plus 7 (the reuse); 3 and 5
	// were freed.
	wantLive := map[page.ID]struct {
		size int
		fill byte
	}{
		1: {64, 0x10}, 2: {128, 0x11}, 4: {256, 0x13}, 6: {64, 0x15}, 7: {64, 0xEE},
	}
	if fs.Len() != len(wantLive) {
		t.Fatalf("recovered Len = %d, want %d", fs.Len(), len(wantLive))
	}
	for id, want := range wantLive {
		got, err := fs.Read(id)
		if err != nil {
			t.Fatalf("Read(%v): %v", id, err)
		}
		if len(got) != want.size || got[0] != want.fill || got[want.size-1] != want.fill {
			t.Fatalf("page %v = %d bytes fill 0x%02X, want %d bytes fill 0x%02X",
				id, len(got), got[0], want.size, want.fill)
		}
	}
	// One 128-byte slot remains on the free list (page 5's).
	free := snapshotFreeLists(fs)
	if len(free[128]) != 1 {
		t.Fatalf("free 128-byte slots = %d, want 1", len(free[128]))
	}
	if len(free[64]) != 0 {
		t.Fatalf("free 64-byte slots = %d, want 0 (reused)", len(free[64]))
	}
}
