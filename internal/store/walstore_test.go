package store_test

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"segidx/internal/page"
	"segidx/internal/store"
	"segidx/internal/store/faultstore"
)

// walView is what a freshly opened WALStore shows: the contents of the
// given pages (nil for a page that does not exist), Len, and the ID the
// next Allocate hands out.
type walView struct {
	Pages map[page.ID][]byte
	Len   int
	Next  page.ID
}

// viewWAL opens the store at path in fsys, replaying its log, records its
// view of ids and closes it again without committing anything.
func viewWAL(t *testing.T, fsys store.FS, path string, ids []page.ID) walView {
	t.Helper()
	ws, err := store.OpenWALStoreIn(fsys, path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	v := walView{Pages: make(map[page.ID][]byte), Len: ws.Len()}
	for _, id := range ids {
		got, err := ws.Read(id)
		switch {
		case errors.Is(err, store.ErrNotFound):
			got = nil
		case err != nil:
			t.Fatalf("Read(%v): %v", id, err)
		}
		v.Pages[id] = got
	}
	if v.Next, err = ws.Allocate(64); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	return v
}

// requireReplayIsNoOp reopens the store at path twice: replaying the log
// over the state it produced must change nothing.
func requireReplayIsNoOp(t *testing.T, fsys store.FS, path string, ids []page.ID) walView {
	t.Helper()
	first := viewWAL(t, fsys, path, ids)
	if again := viewWAL(t, fsys, path, ids); !reflect.DeepEqual(first, again) {
		t.Fatalf("second reopen changed the store:\nfirst  %+v\nsecond %+v", first, again)
	}
	return first
}

// walOnDisk allocates a WALStore over a fresh fault-injection disk.
func walOnDisk(t *testing.T) (*faultstore.Disk, *store.WALStore) {
	t.Helper()
	disk := faultstore.NewDisk()
	ws, err := store.OpenWALStoreIn(disk, "pages.db")
	if err != nil {
		t.Fatalf("store.OpenWALStoreIn: %v", err)
	}
	return disk, ws
}

func TestWALStoreCommitRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	ws, err := store.OpenWALStore(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ws.Allocate(128)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ws.Allocate(256)
	if err != nil {
		t.Fatal(err)
	}
	da := bytes.Repeat([]byte{0xA1}, 128)
	db := bytes.Repeat([]byte{0xB2}, 256)
	if err := ws.Write(a, da); err != nil {
		t.Fatal(err)
	}
	if err := ws.Write(b, db); err != nil {
		t.Fatal(err)
	}
	if err := ws.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Committed batch clears pending. The log keeps the batch, and
	// re-applying it on every open leaves pages and files as they were.
	if ws.Pending() != 0 {
		t.Errorf("Pending after commit = %d, want 0", ws.Pending())
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	pagesBefore, _ := os.ReadFile(path)
	requireReplayIsNoOp(t, store.OS, path, []page.ID{a, b})
	if pagesAfter, _ := os.ReadFile(path); !bytes.Equal(pagesBefore, pagesAfter) {
		t.Errorf("reopening rewrote the page file (%d -> %d bytes)", len(pagesBefore), len(pagesAfter))
	}

	ws2, err := store.OpenWALStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	got, err := ws2.Read(a)
	if err != nil || !bytes.Equal(got, da) {
		t.Fatalf("page a after reopen: %v", err)
	}
	got, err = ws2.Read(b)
	if err != nil || !bytes.Equal(got, db) {
		t.Fatalf("page b after reopen: %v", err)
	}
	// IDs continue past the committed ones.
	c, err := ws2.Allocate(64)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c == b {
		t.Fatalf("Allocate reused committed ID %v", c)
	}
}

func TestWALStoreUncommittedDiscardedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	ws, err := store.OpenWALStore(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ws.Allocate(64)
	if err := ws.Write(a, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	// Second batch: a new page and an overwrite, never committed.
	b, _ := ws.Allocate(64)
	if err := ws.Write(b, bytes.Repeat([]byte{2}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := ws.Write(a, bytes.Repeat([]byte{3}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}

	ws2, err := store.OpenWALStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ws2.Close()
	if ws2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (uncommitted batch must vanish)", ws2.Len())
	}
	got, err := ws2.Read(a)
	if err != nil || got[0] != 1 {
		t.Fatalf("page a = %v, %v; want committed contents", got[:4], err)
	}
	if _, err := ws2.Read(b); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("uncommitted page b = %v, want store.ErrNotFound", err)
	}
}

func TestWALStoreAllocFreeCancels(t *testing.T) {
	_, ws := walOnDisk(t)
	a, _ := ws.Allocate(64)
	if err := ws.Write(a, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := ws.Free(a); err != nil {
		t.Fatal(err)
	}
	if ws.Pending() != 0 {
		t.Errorf("alloc+free in one batch left %d pending ops", ws.Pending())
	}
	if _, err := ws.Read(a); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Read canceled page = %v, want store.ErrNotFound", err)
	}
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	if ws.Len() != 0 {
		t.Errorf("Len = %d, want 0", ws.Len())
	}
}

func TestWALStoreFreeCommittedPage(t *testing.T) {
	_, ws := walOnDisk(t)
	a, _ := ws.Allocate(64)
	b, _ := ws.Allocate(64)
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ws.Free(a); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Read(a); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Read of pending-freed page = %v, want store.ErrNotFound", err)
	}
	if err := ws.Free(a); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("double Free = %v, want store.ErrNotFound", err)
	}
	if ws.Len() != 1 {
		t.Errorf("Len = %d, want 1", ws.Len())
	}
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Read(b); err != nil {
		t.Errorf("surviving page unreadable: %v", err)
	}
	if _, err := ws.Read(a); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("freed page after commit = %v, want store.ErrNotFound", err)
	}
}

func TestWALStoreEmptyCommitIsNoOp(t *testing.T) {
	disk, ws := walOnDisk(t)
	before := disk.Ops()
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	if disk.Ops() != before {
		t.Errorf("empty commit performed %d file mutations", disk.Ops()-before)
	}
}

// TestWALStoreReplayFinishesCommit pins the "finish" half of recovery: a
// crash after the log sync but before the in-place apply must reproduce
// the full batch on reopen.
func TestWALStoreReplayFinishesCommit(t *testing.T) {
	disk, ws := walOnDisk(t)
	a, _ := ws.Allocate(64)
	if err := ws.Write(a, bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}
	// The commit's first mutating op is the log batch write; crash right
	// after it (tear = full batch), so the log survives but nothing was
	// applied in place.
	batchOp := disk.Ops() + 1
	disk.SetCrashPoint(batchOp, 1<<20)
	if err := ws.Commit(); err == nil {
		t.Fatal("Commit survived a power cut")
	}

	img := disk.CrashImage(faultstore.KeepAll, 0)
	ws2, err := store.OpenWALStoreIn(img, "pages.db")
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	got, err := ws2.Read(a)
	if err != nil || got[0] != 7 {
		t.Fatalf("replay did not finish the commit: %v", err)
	}
	if err := ws2.Close(); err != nil {
		t.Fatal(err)
	}
	// Replaying the finished batch again, over the state it produced,
	// changes nothing.
	if v := requireReplayIsNoOp(t, img, "pages.db", []page.ID{a}); v.Len != 1 {
		t.Errorf("Len after second replay = %d, want 1", v.Len)
	}
}

// TestWALStoreReplayDiscardsTornCommit pins the "discard" half: a torn log
// batch (crash mid-append) must leave the previous state intact.
func TestWALStoreReplayDiscardsTornCommit(t *testing.T) {
	disk, ws := walOnDisk(t)
	a, _ := ws.Allocate(64)
	if err := ws.Write(a, bytes.Repeat([]byte{1}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := ws.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ws.Write(a, bytes.Repeat([]byte{9}, 64)); err != nil {
		t.Fatal(err)
	}
	// Tear the second commit's log append after 10 bytes: header survives,
	// records do not.
	disk.SetCrashPoint(disk.Ops()+1, 10)
	if err := ws.Commit(); err == nil {
		t.Fatal("Commit survived a power cut")
	}

	img := disk.CrashImage(faultstore.KeepAll, 0)
	ws2, err := store.OpenWALStoreIn(img, "pages.db")
	if err != nil {
		t.Fatalf("reopen after torn commit: %v", err)
	}
	defer ws2.Close()
	got, err := ws2.Read(a)
	if err != nil || got[0] != 1 {
		t.Fatalf("torn commit leaked: page a = %v, %v; want first-commit contents", got[:4], err)
	}
}

// TestWALStoreCommitFailureIsSticky: after any commit-path failure the
// store refuses every subsequent operation rather than silently writing
// to a file whose durable state it no longer knows.
func TestWALStoreCommitFailureIsSticky(t *testing.T) {
	disk, ws := walOnDisk(t)
	a, _ := ws.Allocate(64)
	if err := ws.Write(a, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	disk.FailSync(1, boom)
	err := ws.Commit()
	if err == nil {
		t.Fatal("Commit with failing sync succeeded")
	}
	if !errors.Is(err, store.ErrBroken) {
		t.Fatalf("Commit error = %v, want store.ErrBroken", err)
	}
	for name, op := range map[string]func() error{
		"Write":    func() error { return ws.Write(a, make([]byte, 64)) },
		"Read":     func() error { _, err := ws.Read(a); return err },
		"Allocate": func() error { _, err := ws.Allocate(64); return err },
		"Free":     func() error { return ws.Free(a) },
		"Commit":   func() error { return ws.Commit() },
		"PageSize": func() error { _, err := ws.PageSize(a); return err },
	} {
		if err := op(); !errors.Is(err, store.ErrBroken) {
			t.Errorf("%s after failed commit = %v, want store.ErrBroken", name, err)
		}
	}
	// Close reports the breakage and stays idempotent.
	first := ws.Close()
	if !errors.Is(first, store.ErrBroken) {
		t.Errorf("Close after breakage = %v, want store.ErrBroken", first)
	}
	if again := ws.Close(); !errors.Is(again, store.ErrBroken) {
		t.Errorf("second Close = %v, want first result replayed", again)
	}
}

// TestWALLogSyncFailureStopsCommit: a commit whose log sync fails stops
// there. It neither writes nor syncs the page file after the failure, so
// whatever the crash keeps of the unsynced log, reopening shows the state
// before the commit or after it, never a mix. The batch writes a page the
// logged batch did not write: replaying the older batch over a page file
// that took the new one would show that page changed and the other one not.
func TestWALLogSyncFailureStopsCommit(t *testing.T) {
	disk := faultstore.NewDisk()
	fsys := &countingFS{FS: disk}
	ws, err := store.OpenWALStoreIn(fsys, "pages.db")
	if err != nil {
		t.Fatal(err)
	}
	s := &walScript{t: t, disk: disk, ws: ws, pages: make(map[page.ID][]byte)}
	a, b := s.alloc(64, 0x1A), s.alloc(64, 0x1B)
	s.commit()
	s.write(a, 0x2A) // the log now holds a batch writing only a
	s.commit()
	before := maps.Clone(s.pages)
	s.write(a, 0x3A)
	s.write(b, 0x3B)
	after := s.pages

	ops, syncs := disk.Ops(), fsys.syncs
	boom := errors.New("boom")
	disk.FailSync(1, boom) // the commit's first sync is the log's
	if err := ws.Commit(); !errors.Is(err, store.ErrBroken) || !errors.Is(err, boom) {
		t.Fatalf("Commit with a failing log sync = %v, want store.ErrBroken wrapping boom", err)
	}
	if w, y := disk.Ops()-ops, fsys.syncs-syncs; w != 1 || y != 1 {
		t.Fatalf("commit made %d writes and %d syncs, want 1 and 1: the log write and the failed log sync", w, y)
	}
	_ = ws.Close() // reports the breakage

	for _, cell := range crashCells {
		got := requireReplayIsNoOp(t, disk.CrashImage(cell.policy, cell.seed), "pages.db", []page.ID{a, b})
		switch {
		case cell.policy == faultstore.KeepNone && !viewMatches(got, before):
			t.Errorf("%v: reopened store is not the state before the failed commit: %+v", cell.policy, got)
		case !viewMatches(got, before) && !viewMatches(got, after):
			t.Errorf("%v/%d: reopened store mixes the failed commit with the one before: %+v", cell.policy, cell.seed, got)
		}
	}
}

// TestWALStoreShortWriteBreaksCommit: a short write on the log append must
// fail the commit, and recovery must discard the partial batch.
func TestWALStoreShortWriteBreaksCommit(t *testing.T) {
	disk, ws := walOnDisk(t)
	a, _ := ws.Allocate(64)
	if err := ws.Write(a, bytes.Repeat([]byte{4}, 64)); err != nil {
		t.Fatal(err)
	}
	disk.ShortWrite(1)
	if err := ws.Commit(); err == nil {
		t.Fatal("Commit with short log write succeeded")
	}
	img := disk.CrashImage(faultstore.KeepAll, 0)
	ws2, err := store.OpenWALStoreIn(img, "pages.db")
	if err != nil {
		t.Fatalf("reopen after short write: %v", err)
	}
	defer ws2.Close()
	if ws2.Len() != 0 {
		t.Errorf("half-written batch recovered %d pages, want 0", ws2.Len())
	}
}

func TestWALStoreWriteValidation(t *testing.T) {
	_, ws := walOnDisk(t)
	a, _ := ws.Allocate(64)
	if err := ws.Write(a, make([]byte, 32)); err == nil {
		t.Error("Write with wrong size accepted")
	}
	if err := ws.Write(page.ID(999), make([]byte, 64)); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Write to unknown page = %v, want store.ErrNotFound", err)
	}
	// Fresh pending pages read back zeroed.
	got, err := ws.Read(a)
	if err != nil || !bytes.Equal(got, make([]byte, 64)) {
		t.Errorf("pending fresh page not zeroed: %v", err)
	}
}

// TestFileStoreSyncFailureIsSticky pins the FileStore half of the sticky
// contract: a failed Sync poisons every subsequent operation.
func TestFileStoreSyncFailureIsSticky(t *testing.T) {
	disk := faultstore.NewDisk()
	fs, err := store.OpenFileStoreIn(disk, "pages.db")
	if err != nil {
		t.Fatal(err)
	}
	id, err := fs.Allocate(64)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	disk.FailSync(1, boom)
	if err := fs.Sync(); !errors.Is(err, store.ErrBroken) {
		t.Fatalf("Sync = %v, want store.ErrBroken", err)
	}
	if err := fs.Write(id, make([]byte, 64)); !errors.Is(err, store.ErrBroken) {
		t.Errorf("Write after failed sync = %v, want store.ErrBroken", err)
	}
	if _, err := fs.Read(id); !errors.Is(err, store.ErrBroken) {
		t.Errorf("Read after failed sync = %v, want store.ErrBroken", err)
	}
	if _, err := fs.Allocate(64); !errors.Is(err, store.ErrBroken) {
		t.Errorf("Allocate after failed sync = %v, want store.ErrBroken", err)
	}
	if err := fs.Sync(); !errors.Is(err, store.ErrBroken) {
		t.Errorf("second Sync = %v, want store.ErrBroken", err)
	}
	first := fs.Close()
	if !errors.Is(first, store.ErrBroken) {
		t.Errorf("Close after breakage = %v, want store.ErrBroken", first)
	}
	if again := fs.Close(); !errors.Is(again, store.ErrBroken) {
		t.Errorf("repeated Close = %v, want first result replayed", again)
	}
}

// TestFileStoreCloseIdempotent: Close twice on a healthy store returns nil
// both times and does not disturb the file.
func TestFileStoreCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	fs, err := store.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := fs.Allocate(64)
	if err := fs.Write(id, bytes.Repeat([]byte{5}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	fs2, err := store.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	got, err := fs2.Read(id)
	if err != nil || got[0] != 5 {
		t.Fatalf("contents after double close: %v", err)
	}
}

// TestFileStoreCloseSyncFailure: the sync inside Close latches the sticky
// error, and the recorded close result is replayed.
func TestFileStoreCloseSyncFailure(t *testing.T) {
	disk := faultstore.NewDisk()
	fs, err := store.OpenFileStoreIn(disk, "pages.db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Allocate(64); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	disk.FailSync(1, boom)
	first := fs.Close()
	if !errors.Is(first, store.ErrBroken) {
		t.Fatalf("Close with failing sync = %v, want store.ErrBroken", first)
	}
	if again := fs.Close(); !errors.Is(again, store.ErrBroken) {
		t.Errorf("repeated Close = %v, want the recorded failure", again)
	}
	if _, err := fs.Allocate(64); !errors.Is(err, store.ErrBroken) {
		t.Errorf("Allocate after broken close = %v, want store.ErrBroken", err)
	}
}
