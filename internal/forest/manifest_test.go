package forest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"path/filepath"
	"strings"
	"testing"

	"segidx/internal/page"
	"segidx/internal/store"
	"segidx/internal/store/faultstore"
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

// metaEpochWord is where builds that stamped a forest flush epoch on every
// shard kept it: bytes 48:56 of the tree's metadata page, now reserved and
// written 0.
const metaEpochWord = 48

// metaPage is the page every tree keeps its metadata on.
const metaPage = page.ID(1)

// shardMetaWord reads or, with set, rewrites and commits the epoch word of
// shard i's metadata page.
func shardMetaWord(t *testing.T, disk *faultstore.Disk, i int, set *uint64) uint64 {
	t.Helper()
	ws, err := store.OpenWALStoreIn(disk, ShardPath("forest.db", i))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ws.Close() }()
	buf, err := ws.Read(metaPage)
	if err != nil {
		t.Fatal(err)
	}
	if set != nil {
		buf = append([]byte(nil), buf...)
		binary.LittleEndian.PutUint64(buf[metaEpochWord:], *set)
		if err := ws.Write(metaPage, buf); err != nil {
			t.Fatal(err)
		}
		if err := ws.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return binary.LittleEndian.Uint64(buf[metaEpochWord:])
}

// TestManifestFormatCompatibility checks the on-disk format in both
// directions. A forest written by a build that bumped the manifest epoch on
// every flush and stamped it on every shard opens whole under this build;
// a forest this build writes holds what such a build reads as a forest
// never flushed since creation — manifest epoch 0 and every shard at epoch
// 0, which its "shard ahead of the manifest" check accepts.
func TestManifestFormatCompatibility(t *testing.T) {
	t.Run("older forest opens", func(t *testing.T) {
		disk := faultstore.NewDisk()
		f, model := newDurableForest(t, disk)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		// The older build's image after two flushes and a close: manifest
		// slots at epochs 2 and 3, every shard stamped 3.
		writeSlots(t, disk, "forest.db", Manifest{Shards: fcShards, Epoch: 2}, Manifest{Shards: fcShards, Epoch: 3})
		three := uint64(3)
		for i := 0; i < fcShards; i++ {
			shardMetaWord(t, disk, i, &three)
			if w := shardMetaWord(t, disk, i, nil); w != 3 {
				t.Fatalf("shard %d metadata word reads %d after stamping 3", i, w)
			}
		}
		if m, err := OpenManifest(disk, "forest.db"); err != nil || m != (Manifest{Shards: fcShards, Epoch: 3}) {
			t.Fatalf("OpenManifest = %+v, %v, want %d shards at epoch 3", m, err, fcShards)
		}
		// Every shard recovers whole and the forest passes CheckInvariants.
		for i, st := range recoverForestAndClassify(t, disk, model, model, "older forest") {
			if st != "A" {
				t.Fatalf("shard %d recovered %q, want every record", i, st)
			}
		}
	})
	t.Run("this build's forest reads as never flushed", func(t *testing.T) {
		disk := faultstore.NewDisk()
		f, _ := newDurableForest(t, disk)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		want := encodeSlot(Manifest{Shards: fcShards})
		if got := readFile(t, disk, "forest.db"); !bytes.Equal(got, want) {
			t.Fatalf("manifest file = %x, want one epoch-0 slot %x", got, want)
		}
		for i := 0; i < fcShards; i++ {
			if w := shardMetaWord(t, disk, i, nil); w != 0 {
				t.Fatalf("shard %d metadata word %d:%d = %d, want 0", i, metaEpochWord, metaEpochWord+8, w)
			}
		}
	})
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
	for _, n := range []int{0, -1, maxShards + 1} {
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
