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
	if err := CreateManifest(store.OS, path, 4); err != nil {
		t.Fatal(err)
	}
	if err := CreateManifest(store.OS, path, 4); err == nil {
		t.Fatal("CreateManifest over an existing manifest succeeded")
	}
	m, err := OpenManifest(store.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 4 || m.Epoch != 0 {
		t.Fatalf("recovered %+v, want shards 4 epoch 0", m)
	}
	if !SniffManifest(store.OS, path) {
		t.Fatal("SniffManifest missed a manifest")
	}
}

// writeSlots writes the given manifest slots at offset 0, one after
// another, as a build that committed a bumped epoch on every flush left
// them: epoch E in slot E%2.
func writeSlots(t *testing.T, fsys store.FS, path string, slots ...Manifest) {
	t.Helper()
	f, err := fsys.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range slots {
		if _, err := f.WriteAt(encodeSlot(m), int64(m.Epoch%2)*manifestSlotBytes); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestManifestTornSlot corrupts the most recent slot of a manifest that
// an older build committed at epochs 1 and 2, and verifies reopen falls
// back to the other slot — the reason both slots are still read.
func TestManifestTornSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "forest.db")
	// Epoch 1 lands in slot 1, epoch 2 back in slot 0.
	writeSlots(t, store.OS, path, Manifest{Shards: 2, Epoch: 1}, Manifest{Shards: 2, Epoch: 2})
	if m, err := OpenManifest(store.OS, path); err != nil || m.Epoch != 2 {
		t.Fatalf("recovered %+v, %v, want the epoch-2 slot", m, err)
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

	m, err := OpenManifest(store.OS, path)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := OpenManifest(store.OS, empty); !errors.Is(err, ErrNoManifest) {
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
	if _, err := OpenManifest(store.OS, foreign); !errors.Is(err, ErrNoManifest) {
		t.Fatalf("OpenManifest(foreign) = %v, want ErrNoManifest", err)
	}
}

func TestCreateManifestRejectsBadShardCounts(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, -1, MaxShards + 1} {
		if err := CreateManifest(store.OS, filepath.Join(dir, "m.db"), n); err == nil {
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
	_, err = OpenManifest(store.OS, path)
	if !errors.Is(err, ErrManifestVersion) || errors.Is(err, ErrNoManifest) {
		t.Fatalf("OpenManifest(v1) = %v, want ErrManifestVersion", err)
	}
	for _, want := range []string{"version 1", "rebuild", "bulk-load"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("OpenManifest(v1) error %q does not say %q", err, want)
		}
	}
	if err := CreateManifest(store.OS, path, 2); !errors.Is(err, ErrManifestVersion) {
		t.Fatalf("CreateManifest over a v1 manifest = %v, want ErrManifestVersion", err)
	}
}
