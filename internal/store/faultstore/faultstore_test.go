package faultstore

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"segidx/internal/store"
)

func mustOpen(t *testing.T, d *Disk, name string) *handle {
	t.Helper()
	f, err := d.OpenFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return f.(*handle)
}

func TestReadBackAndSize(t *testing.T) {
	d := NewDisk()
	f := mustOpen(t, d, "a")
	if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("world"), 5); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "helloworld" {
		t.Fatalf("read back %q", buf)
	}
	if n, _ := f.Size(); n != 10 {
		t.Fatalf("Size = %d, want 10", n)
	}
	// Sparse write extends with zeros.
	if _, err := f.WriteAt([]byte{0xFF}, 15); err != nil {
		t.Fatal(err)
	}
	buf = make([]byte, 16)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[10:15], make([]byte, 5)) || buf[15] != 0xFF {
		t.Fatalf("sparse gap not zeroed: %v", buf[10:])
	}
	// Reads past EOF report EOF like os.File.
	if _, err := f.ReadAt(make([]byte, 4), 100); err != io.EOF {
		t.Fatalf("read past EOF = %v, want io.EOF", err)
	}
}

func TestPowerCutFreezesDisk(t *testing.T) {
	d := NewDisk()
	f := mustOpen(t, d, "a")
	d.SetCrashPoint(2, 3) // second write torn after 3 bytes
	if _, err := f.WriteAt([]byte("aaaa"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("bbbb"), 4); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("crashing write = %v, want ErrPowerCut", err)
	}
	if !d.Crashed() {
		t.Fatal("disk not crashed")
	}
	for name, op := range map[string]func() error{
		"WriteAt":  func() error { _, err := f.WriteAt([]byte{1}, 0); return err },
		"ReadAt":   func() error { _, err := f.ReadAt(make([]byte, 1), 0); return err },
		"Sync":     func() error { return f.Sync() },
		"Truncate": func() error { return f.Truncate(0) },
		"Open":     func() error { _, err := d.OpenFile("b"); return err },
	} {
		if err := op(); !errors.Is(err, ErrPowerCut) {
			t.Errorf("%s after power cut = %v, want ErrPowerCut", name, err)
		}
	}
}

func TestCrashImagePolicies(t *testing.T) {
	build := func() *Disk {
		d := NewDisk()
		f := mustOpen(t, d, "a")
		if _, err := f.WriteAt([]byte("base"), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		// Two unsynced writes, then a torn third (2 of 4 bytes).
		d.SetCrashPoint(d.Ops()+3, 2)
		f.WriteAt([]byte("AAAA"), 4) //nolint - errors irrelevant pre-crash
		f.WriteAt([]byte("BBBB"), 8)
		f.WriteAt([]byte("CCCC"), 12)
		return d
	}

	read := func(img *Disk) []byte {
		f, err := img.OpenFile("a")
		if err != nil {
			t.Fatal(err)
		}
		n, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, n)
		if n > 0 {
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		return buf
	}

	if got := read(build().CrashImage(KeepNone, 0)); string(got) != "base" {
		t.Errorf("KeepNone image = %q, want synced prefix only", got)
	}
	if got := read(build().CrashImage(KeepAll, 0)); string(got) != "baseAAAABBBBCC" {
		t.Errorf("KeepAll image = %q, want all writes with torn tail", got)
	}
	// Subset images are deterministic for a fixed seed.
	s1 := read(build().CrashImage(KeepSubset, 42))
	s2 := read(build().CrashImage(KeepSubset, 42))
	if !bytes.Equal(s1, s2) {
		t.Errorf("KeepSubset not deterministic: %q vs %q", s1, s2)
	}
	// The synced prefix always survives.
	if len(s1) < 4 || string(s1[:4]) != "base" {
		t.Errorf("KeepSubset lost synced data: %q", s1)
	}
	if got := read(build().CrashImage(LoseLog, 0)); string(got) != "baseAAAABBBBCC" {
		t.Errorf("LoseLog image of a page file = %q, want all writes with torn tail", got)
	}
}

// TestLoseLogDropsOnlyTheLog writes, unsynced, to a page file and to its
// log: LoseLog keeps the page file's writes and loses the log's, its
// truncation included.
func TestLoseLogDropsOnlyTheLog(t *testing.T) {
	d := NewDisk()
	pages := mustOpen(t, d, "pages.db")
	log := mustOpen(t, d, "pages.db"+store.WALSuffix)
	for _, f := range []*handle{pages, log} {
		if _, err := f.WriteAt([]byte("base"), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := log.WriteAt([]byte("LOG!"), 4); err != nil {
		t.Fatal(err)
	}
	if err := log.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if _, err := pages.WriteAt([]byte("PAGE"), 4); err != nil {
		t.Fatal(err)
	}
	img := d.CrashImage(LoseLog, 0)
	for name, want := range map[string]string{"pages.db": "basePAGE", "pages.db" + store.WALSuffix: "base"} {
		f := mustOpen(t, img, name)
		n, err := f.Size()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, n)
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if string(buf) != want {
			t.Errorf("%s = %q, want %q", name, buf, want)
		}
	}
}

func TestCrashImageIsFaultFree(t *testing.T) {
	d := NewDisk()
	f := mustOpen(t, d, "a")
	d.SetCrashPoint(1, 0)
	f.WriteAt([]byte("x"), 0) //nolint - crashing write
	img := d.CrashImage(KeepNone, 0)
	g, err := img.OpenFile("a")
	if err != nil {
		t.Fatalf("image open: %v", err)
	}
	if _, err := g.WriteAt([]byte("fresh"), 0); err != nil {
		t.Fatalf("image write: %v", err)
	}
}

func TestFailWriteOneShot(t *testing.T) {
	d := NewDisk()
	f := mustOpen(t, d, "a")
	boom := errors.New("boom")
	d.FailWrite(2, boom)
	if _, err := f.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{2}, 1); !errors.Is(err, boom) {
		t.Fatalf("second write = %v, want injected error", err)
	}
	if _, err := f.WriteAt([]byte{3}, 1); err != nil {
		t.Fatalf("injection not one-shot: %v", err)
	}
	// The failed write applied nothing.
	buf := make([]byte, 2)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if buf[1] != 3 {
		t.Fatalf("failed write leaked bytes: %v", buf)
	}
}

func TestShortWriteAppliesPrefix(t *testing.T) {
	d := NewDisk()
	f := mustOpen(t, d, "a")
	d.ShortWrite(1)
	n, err := f.WriteAt([]byte("abcdef"), 0)
	if err == nil {
		t.Fatal("short write reported success")
	}
	if n != 3 {
		t.Fatalf("short write applied %d bytes, want 3", n)
	}
	if size, _ := f.Size(); size != 3 {
		t.Fatalf("file size %d after short write, want 3", size)
	}
}

func TestFailSyncLeavesJournalUnsynced(t *testing.T) {
	d := NewDisk()
	f := mustOpen(t, d, "a")
	boom := errors.New("boom")
	if _, err := f.WriteAt([]byte("data"), 0); err != nil {
		t.Fatal(err)
	}
	d.FailSync(1, boom)
	if err := f.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync = %v, want injected error", err)
	}
	// The write stayed in the journal: KeepNone loses it.
	if img := d.CrashImage(KeepNone, 0); func() int64 {
		g, _ := img.OpenFile("a")
		n, _ := g.Size()
		return n
	}() != 0 {
		t.Error("failed sync still made data durable")
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("later sync = %v, want nil (one-shot)", err)
	}
}

func TestTruncateJournaled(t *testing.T) {
	d := NewDisk()
	f := mustOpen(t, d, "a")
	if _, err := f.WriteAt([]byte("abcdef"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if n, _ := f.Size(); n != 2 {
		t.Fatalf("size after truncate = %d", n)
	}
	// Unsynced truncate is lost under KeepNone, kept under KeepAll and
	// KeepSubset (metadata ops stay ordered).
	for _, tc := range []struct {
		policy CrashPolicy
		want   int64
	}{{KeepNone, 6}, {KeepAll, 2}, {KeepSubset, 2}} {
		img := d.CrashImage(tc.policy, 7)
		g, _ := img.OpenFile("a")
		if n, _ := g.Size(); n != tc.want {
			t.Errorf("%v image size = %d, want %d", tc.policy, n, tc.want)
		}
	}
}

func TestOpsCounting(t *testing.T) {
	d := NewDisk()
	f := mustOpen(t, d, "a")
	if d.Ops() != 0 {
		t.Fatalf("fresh disk Ops = %d", d.Ops())
	}
	f.WriteAt([]byte{1}, 0) //nolint
	f.Truncate(0)           //nolint
	f.Sync()                //nolint - syncs are not mutations
	f.ReadAt(make([]byte, 1), 0)
	if d.Ops() != 2 {
		t.Fatalf("Ops = %d, want 2 (write + truncate)", d.Ops())
	}
}
