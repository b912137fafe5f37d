// Package forest holds the two contracts a sharded segment index keeps on
// disk: the manifest, the durable root that records how many shards a
// forest of files has, and RouteID, the placement rule that names the one
// shard each record lives in. Both are file format: a forest written under
// one manifest version or one RouteID must be read under the same. The
// index that spreads itself over its shards (scatter-gather reads, the
// breakage latch, per-shard flushes) is the root package's Index.
package forest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"segidx/internal/store"
)

// The manifest is the forest's durable root: a tiny file holding the
// shard count, checksummed, written once when the forest is created and
// never again. Its version names the placement rule the shards were
// written under: version 1 placed records by rectangle center, version 2
// by RouteID. A forest of another version is refused, never re-routed.
//
// Layout: two 64-byte slots. CreateManifest writes slot 0 at epoch 0.
// Builds before this one committed a bumped epoch on every forest flush,
// alternating slots, so a file they wrote may hold a higher epoch in
// either slot; readers therefore decode both slots and adopt the
// checksum-valid one with the higher epoch. The epoch orders nothing:
// every shard is flushed and recovered on its own (see DESIGN §9).
//
// Slot layout (little endian):
//
//	0  u32 magic "SGFM"
//	4  u16 version
//	6  u16 shard count
//	8  u64 epoch (0 when written by CreateManifest)
//	16     reserved (zero)
//	60 u32 crc32 (IEEE) over bytes [0, 60)
const (
	manifestMagic     = 0x5347464d // "SGFM"
	manifestVersion   = 2
	manifestSlotBytes = 64
	manifestCRCOff    = 60
)

// MaxShards is the most shards a forest may have.
const MaxShards = 1 << 10

// ErrNoManifest is returned by OpenManifest when the file holds no valid
// manifest slot (missing, empty, or its creation never completed).
var ErrNoManifest = errors.New("forest: no manifest (was the forest's creation interrupted?)")

// ErrManifestVersion is returned by OpenManifest and CreateManifest when
// the file holds an intact manifest slot of a version this build does not
// read: its shards place records by another rule.
var ErrManifestVersion = errors.New("forest: unsupported manifest version")

// Manifest is the decoded durable root of a forest.
type Manifest struct {
	Shards int
	Epoch  uint64 // 0, unless an older build bumped it on every flush
}

// encodeSlot serializes one manifest slot.
func encodeSlot(m Manifest) []byte {
	buf := make([]byte, manifestSlotBytes)
	binary.LittleEndian.PutUint32(buf[0:4], manifestMagic)
	binary.LittleEndian.PutUint16(buf[4:6], manifestVersion)
	binary.LittleEndian.PutUint16(buf[6:8], uint16(m.Shards))
	binary.LittleEndian.PutUint64(buf[8:16], m.Epoch)
	crc := crc32.ChecksumIEEE(buf[:manifestCRCOff])
	binary.LittleEndian.PutUint32(buf[manifestCRCOff:manifestCRCOff+4], crc)
	return buf
}

// decodeSlot parses one manifest slot. ok is false for a torn, foreign or
// out-of-range slot; a checksum-valid slot of another version is an error,
// so a forest written under another placement rule is refused rather than
// mistaken for one that was never flushed.
func decodeSlot(buf []byte) (m Manifest, ok bool, err error) {
	if len(buf) < manifestSlotBytes {
		return Manifest{}, false, nil
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != manifestMagic {
		return Manifest{}, false, nil
	}
	if binary.LittleEndian.Uint32(buf[manifestCRCOff:manifestCRCOff+4]) != crc32.ChecksumIEEE(buf[:manifestCRCOff]) {
		return Manifest{}, false, nil
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != manifestVersion {
		return Manifest{}, false, fmt.Errorf("%w: the forest was written at version %d, this build reads version %d "+
			"(records are placed on shards by ID since version 2); rebuild the index or bulk-load its records again",
			ErrManifestVersion, v, manifestVersion)
	}
	m = Manifest{
		Shards: int(binary.LittleEndian.Uint16(buf[6:8])),
		Epoch:  binary.LittleEndian.Uint64(buf[8:16]),
	}
	if m.Shards < 1 || m.Shards > MaxShards {
		return Manifest{}, false, nil
	}
	return m, true, nil
}

// readSlots reads and decodes both slots from f.
func readSlots(f store.File) (best Manifest, found bool, err error) {
	buf := make([]byte, 2*manifestSlotBytes)
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return Manifest{}, false, fmt.Errorf("forest: manifest read: %w", err)
	}
	buf = buf[:n]
	for off := 0; off+manifestSlotBytes <= len(buf); off += manifestSlotBytes {
		m, ok, err := decodeSlot(buf[off : off+manifestSlotBytes])
		if err != nil {
			return Manifest{}, false, err
		}
		if ok && (!found || m.Epoch > best.Epoch) {
			best, found = m, true
		}
	}
	return best, found, nil
}

// CreateManifest creates the manifest for a fresh forest at path inside
// fsys: it writes slot 0 at epoch 0, syncs it and closes the file, which
// is never written again. The file must not already hold a manifest.
func CreateManifest(fsys store.FS, path string, shards int) error {
	if shards < 1 || shards > MaxShards {
		return fmt.Errorf("forest: shard count %d outside [1, %d]", shards, MaxShards)
	}
	f, err := fsys.OpenFile(path)
	if err != nil {
		return err
	}
	if _, found, err := readSlots(f); err != nil {
		return errors.Join(err, f.Close())
	} else if found {
		return errors.Join(fmt.Errorf("forest: %s already holds a forest manifest", path), f.Close())
	}
	if _, err := f.WriteAt(encodeSlot(Manifest{Shards: shards}), 0); err != nil {
		return errors.Join(fmt.Errorf("forest: manifest write: %w", err), f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(fmt.Errorf("forest: manifest sync: %w", err), f.Close())
	}
	return f.Close()
}

// OpenManifest reads the manifest at path inside fsys and returns its
// recovered state, the checksum-valid slot with the highest epoch,
// without keeping the file open.
func OpenManifest(fsys store.FS, path string) (Manifest, error) {
	f, err := fsys.OpenFile(path)
	if err != nil {
		return Manifest{}, err
	}
	m, found, err := readSlots(f)
	// The read is done; a close failure cannot change what it found.
	_ = f.Close()
	switch {
	case err != nil:
		return Manifest{}, err
	case !found:
		return Manifest{}, ErrNoManifest
	}
	return m, nil
}

// SniffManifest reports whether path inside fsys holds a forest manifest
// slot magic (valid or torn). It distinguishes a forest root from a
// single-tree page file without parsing either.
func SniffManifest(fsys store.FS, path string) bool {
	f, err := fsys.OpenFile(path)
	if err != nil {
		return false
	}
	found := false
	var hdr [4]byte
	for _, off := range []int64{0, manifestSlotBytes} {
		if _, err := f.ReadAt(hdr[:], off); err == nil &&
			binary.LittleEndian.Uint32(hdr[:]) == manifestMagic {
			found = true
			break
		}
	}
	// The sniff never writes; a close failure cannot change the verdict.
	_ = f.Close()
	return found
}
