package forest

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"segidx/internal/store"
)

func TestManifestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "forest.db")
	mf, err := CreateManifest(store.OS, path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CreateManifest(store.OS, path, 4); err == nil {
		t.Fatal("CreateManifest over an existing manifest succeeded")
	}
	for e := uint64(1); e <= 3; e++ {
		if err := mf.Commit(Manifest{Shards: 4, Epoch: e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	reopened, m, err := OpenManifest(store.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if m.Shards != 4 || m.Epoch != 3 {
		t.Fatalf("recovered %+v, want shards 4 epoch 3", m)
	}
	if !SniffManifest(store.OS, path) {
		t.Fatal("SniffManifest missed a manifest")
	}
}

// TestManifestTornSlot corrupts the most recent slot and verifies reopen
// falls back to the previous epoch — the double-slot crash guarantee.
func TestManifestTornSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "forest.db")
	mf, err := CreateManifest(store.OS, path, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch 1 lands in slot 1, epoch 2 back in slot 0.
	for e := uint64(1); e <= 2; e++ {
		if err := mf.Commit(Manifest{Shards: 2, Epoch: e}); err != nil {
			t.Fatal(err)
		}
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear slot 0 (the epoch-2 slot): flip one payload byte.
	f, err := store.OS.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 9); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, m, err := OpenManifest(store.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if m.Epoch != 1 || m.Shards != 2 {
		t.Fatalf("recovered %+v, want the epoch-1 slot", m)
	}
	// The torn file still sniffs as a forest: slot 1 carries the magic.
	if !SniffManifest(store.OS, path) {
		t.Fatal("SniffManifest missed a torn-but-recoverable manifest")
	}
}

func TestManifestEmptyAndForeign(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.db")
	if _, _, err := OpenManifest(store.OS, empty); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("OpenManifest(empty) = %v, want ErrNoManifest", err)
	}
	if SniffManifest(store.OS, empty) {
		t.Fatal("SniffManifest claimed an empty file")
	}

	foreign := filepath.Join(dir, "tree.db")
	f, err := store.OS.OpenFile(foreign)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 256), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if SniffManifest(store.OS, foreign) {
		t.Fatal("SniffManifest claimed a zero-filled file")
	}
	if _, _, err := OpenManifest(store.OS, foreign); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("OpenManifest(foreign) = %v, want ErrNoManifest", err)
	}
}

func TestCreateManifestRejectsBadShardCounts(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, -1, maxShards + 1} {
		if _, err := CreateManifest(store.OS, filepath.Join(dir, "m.db"), n); err == nil {
			t.Fatalf("CreateManifest(%d) succeeded", n)
		}
	}
}

// TestManifestRefusesVersion1 writes an intact version-1 slot by hand — a
// forest whose shards placed records by rectangle center — and checks it is
// refused with an error naming the version, not mistaken for a forest that
// was never flushed, and not overwritten by a fresh manifest.
func TestManifestRefusesVersion1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "forest.db")
	slot := make([]byte, manifestSlotBytes)
	binary.LittleEndian.PutUint32(slot[0:4], manifestMagic)
	binary.LittleEndian.PutUint16(slot[4:6], 1)
	binary.LittleEndian.PutUint16(slot[6:8], 2)
	binary.LittleEndian.PutUint64(slot[8:16], 4)
	binary.LittleEndian.PutUint32(slot[manifestCRCOff:], crc32.ChecksumIEEE(slot[:manifestCRCOff]))
	f, err := store.OS.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(slot, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if !SniffManifest(store.OS, path) {
		t.Fatal("SniffManifest missed a version-1 manifest")
	}
	_, _, err = OpenManifest(store.OS, path)
	if !errors.Is(err, ErrManifestVersion) || errors.Is(err, ErrNoManifest) {
		t.Fatalf("OpenManifest(v1) = %v, want ErrManifestVersion", err)
	}
	for _, want := range []string{"version 1", "rebuild", "bulk-load"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("OpenManifest(v1) error %q does not say %q", err, want)
		}
	}
	if _, err := CreateManifest(store.OS, path, 2); !errors.Is(err, ErrManifestVersion) {
		t.Fatalf("CreateManifest over a v1 manifest = %v, want ErrManifestVersion", err)
	}
}
