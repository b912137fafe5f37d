package store_test

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"segidx/internal/page"
	"segidx/internal/store"
	"segidx/internal/store/faultstore"
)

// countingFS counts the Syncs and Truncates made through the files it
// opens.
type countingFS struct {
	store.FS
	syncs, truncates int
}

func (c *countingFS) OpenFile(name string) (store.File, error) {
	f, err := c.FS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, c: c}, nil
}

type countingFile struct {
	store.File
	c *countingFS
}

func (f countingFile) Sync() error {
	f.c.syncs++
	return f.File.Sync()
}

func (f countingFile) Truncate(size int64) error {
	f.c.truncates++
	return f.File.Truncate(size)
}

// TestWALSteadyCommitSyncsTwice pins the cost of a durable commit: one
// fsync of the log and one of the page file, and no truncate. The only
// truncate is the one cut of a bulk batch's stale tail, which rides on
// the log fsync the commit does anyway and leaves the log small.
func TestWALSteadyCommitSyncsTwice(t *testing.T) {
	disk := faultstore.NewDisk()
	fsys := &countingFS{FS: disk}
	ws, err := store.OpenWALStoreIn(fsys, "pages.db")
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	commit := func(pages, size int) (syncs, truncates int) {
		t.Helper()
		for i := 0; i < pages; i++ {
			id, err := ws.Allocate(size)
			if err != nil {
				t.Fatal(err)
			}
			if err := ws.Write(id, bytes.Repeat([]byte{byte(i + 1)}, size)); err != nil {
				t.Fatal(err)
			}
		}
		s, tr := fsys.syncs, fsys.truncates
		if err := ws.Commit(); err != nil {
			t.Fatal(err)
		}
		return fsys.syncs - s, fsys.truncates - tr
	}
	logSize := func() int64 {
		t.Helper()
		f, err := disk.OpenFile("pages.db" + store.WALSuffix)
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	for i := 0; i < 3; i++ {
		if s, tr := commit(4, 512); s != 2 || tr != 0 {
			t.Fatalf("steady commit %d: %d syncs, %d truncates; want 2, 0", i, s, tr)
		}
	}
	if s, tr := commit(40, 32<<10); s != 2 || tr != 0 {
		t.Fatalf("bulk commit: %d syncs, %d truncates; want 2, 0", s, tr)
	}
	if n := logSize(); n < 40*32<<10 {
		t.Fatalf("log after the bulk commit holds %d bytes, less than its batch", n)
	}
	if s, tr := commit(1, 512); s != 2 || tr != 1 {
		t.Fatalf("commit after the bulk one: %d syncs, %d truncates; want 2, 1 (the cut)", s, tr)
	}
	if n := logSize(); n > 1<<20 {
		t.Fatalf("log still holds %d bytes after the cut", n)
	}
	if s, tr := commit(4, 512); s != 2 || tr != 0 {
		t.Fatalf("commit after the cut: %d syncs, %d truncates; want 2, 0", s, tr)
	}
}

// walScript drives a WALStore and a model of the pages it must hold,
// snapshotting the model and the disk's op count at every commit.
type walScript struct {
	t     *testing.T
	disk  *faultstore.Disk
	ws    *store.WALStore
	pages map[page.ID][]byte
	ids   []page.ID // every ID ever allocated

	snaps []map[page.ID][]byte // the model after each commit
	ops   []int                // disk.Ops() after each commit
}

func (s *walScript) alloc(size int, fill byte) page.ID {
	s.t.Helper()
	id, err := s.ws.Allocate(size)
	if err != nil {
		s.t.Fatal(err)
	}
	s.ids = append(s.ids, id)
	s.pages[id] = make([]byte, size)
	s.write(id, fill)
	return id
}

func (s *walScript) write(id page.ID, fill byte) {
	s.t.Helper()
	data := bytes.Repeat([]byte{fill}, len(s.pages[id]))
	if err := s.ws.Write(id, data); err != nil {
		s.t.Fatal(err)
	}
	s.pages[id] = data
}

func (s *walScript) free(id page.ID) {
	s.t.Helper()
	if err := s.ws.Free(id); err != nil {
		s.t.Fatal(err)
	}
	delete(s.pages, id)
}

// commit commits the batch. A commit cut short by the armed power cut
// ends the script's durable history; any other failure is fatal.
func (s *walScript) commit() {
	s.t.Helper()
	if err := s.ws.Commit(); err != nil {
		if !s.disk.Crashed() {
			s.t.Fatalf("commit %d: %v", len(s.snaps)+1, err)
		}
		return
	}
	s.snaps = append(s.snaps, maps.Clone(s.pages))
	s.ops = append(s.ops, s.disk.Ops())
}

// runWALScript runs script on a fresh disk with the power cut armed at
// op crashAt (0: never).
func runWALScript(t *testing.T, script func(*walScript), crashAt, tear int) *walScript {
	t.Helper()
	disk := faultstore.NewDisk()
	disk.SetCrashPoint(crashAt, tear)
	ws, err := store.OpenWALStoreIn(disk, "pages.db")
	if err != nil {
		t.Fatal(err)
	}
	s := &walScript{t: t, disk: disk, ws: ws, pages: make(map[page.ID][]byte)}
	script(s)
	_ = ws.Close() // after a power cut, Close fails too
	return s
}

// viewMatches reports whether v shows exactly the pages of model.
func viewMatches(v walView, model map[page.ID][]byte) bool {
	if v.Len != len(model) {
		return false
	}
	for id, got := range v.Pages {
		if want, ok := model[id]; ok != (got != nil) || !bytes.Equal(got, want) {
			return false
		}
	}
	return true
}

// crashCells are the crash images a WAL test reopens: each policy, and
// KeepSubset under two seeds.
var crashCells = []struct {
	policy faultstore.CrashPolicy
	seed   uint64
}{
	{faultstore.KeepNone, 0},
	{faultstore.KeepAll, 0},
	{faultstore.KeepSubset, 1},
	{faultstore.KeepSubset, 2},
}

// TestWALStaleBatchCrashSweep cuts power at every op of a script's last
// commit, under each crash policy, with the crashing write torn or whole.
// The log is never emptied, so each crash leaves the new batch written
// over the previous one — whole, torn, or cut short. Recovery must land
// on the state before or after the last commit, never a mix; a second
// reopen must change nothing; and the next commit must overwrite
// whatever the log was left holding.
func TestWALStaleBatchCrashSweep(t *testing.T) {
	scripts := []struct {
		name   string
		script func(*walScript)
	}{
		{"shorter batch over a longer one", func(s *walScript) {
			var ids []page.ID
			for i := 0; i < 6; i++ {
				ids = append(ids, s.alloc(512, byte(0x10+i)))
			}
			s.commit()
			s.write(ids[0], 0x51)
			s.commit()
		}},
		{"small batch after a bulk one cuts the tail", func(s *walScript) {
			var ids []page.ID
			for i := 0; i < 40; i++ { // 1.25 MiB: past the log's tail slack
				ids = append(ids, s.alloc(32<<10, byte(0x10+i)))
			}
			s.commit()
			s.write(ids[3], 0x52)
			s.commit()
		}},
		{"replayed alloc and free of pages already so", func(s *walScript) {
			a, b, c := s.alloc(256, 0x1A), s.alloc(256, 0x1B), s.alloc(256, 0x1C)
			s.commit()
			s.free(b) // logged until the next commit: replay frees a freed page
			s.write(a, 0x2A)
			s.commit()
			s.alloc(256, 0x3D) // may take b's slot
			s.free(c)
			s.write(a, 0x3A)
			s.commit()
		}},
		{"batch writing pages the logged one did not", func(s *walScript) {
			// A page written before the log sync can survive a crash
			// that loses the new batch from the log; replaying the
			// logged batch rewrites only ids[0], so such a page would
			// show the new batch alone. KeepSubset/2 drops the log
			// write and keeps the fourth page write.
			var ids []page.ID
			for i := 0; i < 4; i++ {
				ids = append(ids, s.alloc(256, byte(0x10+i)))
			}
			s.commit()
			s.write(ids[0], 0x20)
			s.commit()
			for i, id := range ids {
				s.write(id, byte(0x30+i))
			}
			s.commit()
		}},
	}
	tears := []int{7, 100, 1 << 30} // torn in the header, torn in a record, whole
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			ref := runWALScript(t, sc.script, 0, 0)
			last := len(ref.snaps) - 1
			before, after := ref.snaps[last-1], ref.snaps[last]
			for n := ref.ops[last-1] + 1; n <= ref.ops[last]; n++ {
				for _, tear := range tears {
					for _, cell := range crashCells {
						where := fmt.Sprintf("op %d, tear %d, %v/%d", n, tear, cell.policy, cell.seed)
						run := runWALScript(t, sc.script, n, tear)
						if !run.disk.Crashed() {
							t.Fatalf("%s: the power cut never fired", where)
						}
						img := run.disk.CrashImage(cell.policy, cell.seed)
						got := requireReplayIsNoOp(t, img, "pages.db", ref.ids)
						if !viewMatches(got, before) && !viewMatches(got, after) {
							t.Fatalf("%s: recovered %d pages, neither commit %d nor %d", where, got.Len, last, last+1)
						}
						requireNextCommitLands(t, img, ref.ids, got)
					}
				}
			}
		})
	}
}

// requireNextCommitLands commits one new page over a recovered store
// showing v and checks that reopening shows v plus that page.
func requireNextCommitLands(t *testing.T, img *faultstore.Disk, ids []page.ID, v walView) {
	t.Helper()
	ws, err := store.OpenWALStoreIn(img, "pages.db")
	if err != nil {
		t.Fatal(err)
	}
	id, err := ws.Allocate(64)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xEE}, 64)
	if err := ws.Write(id, data); err != nil {
		t.Fatal(err)
	}
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	want := make(map[page.ID][]byte)
	for pid, b := range v.Pages {
		if b != nil {
			want[pid] = b
		}
	}
	want[id] = data
	if got := viewWAL(t, img, "pages.db", append(ids[:len(ids):len(ids)], id)); !viewMatches(got, want) {
		t.Fatalf("the commit after recovery did not land: %d pages, want %d", got.Len, len(want))
	}
}

// TestFileStoreTornHeaderRecovery tears the header write that gives a
// freed slot to a new page at every byte, under every crash policy. The
// old header carries a dead ID, and a live page earlier in the file has
// the new ID's low byte and the dead ID's high bytes, so a header torn
// inside its ID bytes spells that live page's ID. Recovery
// must show every live page with its own contents and nothing else: no
// freed page comes back, and no torn header claims another page's ID.
func TestFileStoreTornHeaderRecovery(t *testing.T) {
	const size = 16
	// build allocates pages 1…0x210, frees page 0x1F5 (its slot keeps
	// the dead ID) and syncs; the next Allocate reuses that slot as page
	// 0x211. Torn after its low ID byte, the header reads 0x111, live.
	build := func() (*faultstore.Disk, *store.FileStore, map[page.ID][]byte) {
		disk := faultstore.NewDisk()
		fs, err := store.OpenFileStoreIn(disk, "pages.db")
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[page.ID][]byte)
		for i := 1; i <= 0x210; i++ {
			id, err := fs.Allocate(size)
			if err != nil {
				t.Fatal(err)
			}
			data := bytes.Repeat([]byte{byte(i)}, size)
			if err := fs.Write(id, data); err != nil {
				t.Fatal(err)
			}
			live[id] = data
		}
		if err := fs.Free(0x1F5); err != nil {
			t.Fatal(err)
		}
		delete(live, 0x1F5)
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		return disk, fs, live
	}
	disk, fs, _ := build()
	zeroOp := disk.Ops() + 1 // Allocate zeroes the body, then writes the header
	if id, err := fs.Allocate(size); err != nil || id != 0x211 {
		t.Fatalf("Allocate = %v, %v; want page(0x211) in the freed slot", id, err)
	}
	_ = fs.Close()

	for tear := 1; tear < 20; tear++ {
		for _, policy := range []faultstore.CrashPolicy{faultstore.KeepNone, faultstore.KeepAll, faultstore.KeepSubset} {
			disk, fs, live := build()
			disk.SetCrashPoint(zeroOp+1, tear)
			if _, err := fs.Allocate(size); err == nil {
				t.Fatal("Allocate survived the power cut")
			}
			_ = fs.Close()
			got, err := store.OpenFileStoreIn(disk.CrashImage(policy, 1), "pages.db")
			if err != nil {
				t.Fatalf("tear %d, %v: reopen: %v", tear, policy, err)
			}
			if n := got.Len(); n != len(live) && n != len(live)+1 {
				t.Errorf("tear %d, %v: %d live pages, want %d or %d", tear, policy, n, len(live), len(live)+1)
			}
			for id, want := range live {
				if data, err := got.Read(id); err != nil || !bytes.Equal(data, want) {
					t.Fatalf("tear %d, %v: page %v lost its contents (%v)", tear, policy, id, err)
				}
			}
			if _, err := got.Read(0x1F5); err == nil {
				t.Errorf("tear %d, %v: freed page 0x1F5 came back", tear, policy)
			}
			if next := got.NextID(); next <= 0x210 {
				t.Errorf("tear %d, %v: NextID %v would hand out a used ID", tear, policy, next)
			}
			_ = got.Close()
		}
	}
}
