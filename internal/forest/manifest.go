// Package forest shards one logical segment index across N >= 1
// independent trees — each with its own page store, write-ahead log,
// buffer-pool budget, and write lock — behind the same operation set a
// single tree exposes. A router assigns every logical record to exactly one
// shard by hashing its rectangle's center, so writers on different shards
// never contend; queries scatter across the shards whose covers overlap the
// query and gather the per-shard results, which need no cross-shard
// deduplication because a record lives wholly in one shard. Every index is
// a forest: the plain tree is the forest of one, which has no router and no
// manifest and persists as exactly the files its one tree writes.
package forest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"segidx/internal/store"
)

// The manifest is the forest's durable root: a tiny file holding the
// shard count and the current flush epoch, checksummed and double-slotted
// so an interrupted write can never destroy the last durable state.
//
// Layout: two 64-byte slots. A commit with epoch E writes slot E%2, so
// consecutive commits alternate slots and a torn write tears only the
// slot whose previous content was already superseded. Readers decode both
// slots and adopt the checksum-valid one with the higher epoch.
//
// Slot layout (little endian):
//
//	0  u32 magic "SGFM"
//	4  u16 version
//	6  u16 shard count
//	8  u64 flush epoch
//	16     reserved (zero)
//	60 u32 crc32 (IEEE) over bytes [0, 60)
//
// Ordering contract with the shards: a forest flush first commits the
// manifest at epoch E, then stamps every shard with E and commits it
// (core.Tree.SetFlushEpoch rides the shard's metadata page). A crash at any
// point therefore leaves every shard's durable epoch at or below the
// manifest's — a shard ahead of the manifest is proof of corruption.
const (
	manifestMagic     = 0x5347464d // "SGFM"
	manifestVersion   = 1
	manifestSlotBytes = 64
	manifestCRCOff    = 60
	maxShards         = 1 << 10
)

// ErrNoManifest is returned by OpenManifest when the file holds no valid
// manifest slot (missing, empty, or never successfully committed).
var ErrNoManifest = errors.New("forest: no manifest (was Flush called before close?)")

// Manifest is the decoded durable root of a forest.
type Manifest struct {
	Shards int
	Epoch  uint64
}

// ManifestFile is an open handle to a forest manifest.
type ManifestFile struct {
	mu     sync.Mutex
	f      store.File
	closed bool
}

// ShardPath names shard i's page store under the forest path. The shard's
// write-ahead log (durable forests) lives beside it at the usual
// store.WALSuffix.
func ShardPath(path string, i int) string {
	return fmt.Sprintf("%s.shard%d", path, i)
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

// decodeSlot parses one manifest slot; ok is false for anything but a
// checksum-valid slot of the current version.
func decodeSlot(buf []byte) (Manifest, bool) {
	if len(buf) < manifestSlotBytes {
		return Manifest{}, false
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != manifestMagic {
		return Manifest{}, false
	}
	if binary.LittleEndian.Uint32(buf[manifestCRCOff:manifestCRCOff+4]) != crc32.ChecksumIEEE(buf[:manifestCRCOff]) {
		return Manifest{}, false
	}
	if binary.LittleEndian.Uint16(buf[4:6]) != manifestVersion {
		return Manifest{}, false
	}
	m := Manifest{
		Shards: int(binary.LittleEndian.Uint16(buf[6:8])),
		Epoch:  binary.LittleEndian.Uint64(buf[8:16]),
	}
	if m.Shards < 1 || m.Shards > maxShards {
		return Manifest{}, false
	}
	return m, true
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
		if m, ok := decodeSlot(buf[off : off+manifestSlotBytes]); ok {
			if !found || m.Epoch > best.Epoch {
				best, found = m, true
			}
		}
	}
	return best, found, nil
}

// CreateManifest creates the manifest for a fresh forest at path inside
// fsys and commits its epoch-0 slot. The file must not already hold a
// manifest.
func CreateManifest(fsys store.FS, path string, shards int) (*ManifestFile, error) {
	if shards < 1 || shards > maxShards {
		return nil, fmt.Errorf("forest: shard count %d outside [1, %d]", shards, maxShards)
	}
	f, err := fsys.OpenFile(path)
	if err != nil {
		return nil, err
	}
	if _, found, err := readSlots(f); err != nil {
		return nil, errors.Join(err, f.Close())
	} else if found {
		return nil, errors.Join(fmt.Errorf("forest: %s already holds a forest manifest", path), f.Close())
	}
	mf := &ManifestFile{f: f}
	if err := mf.Commit(Manifest{Shards: shards, Epoch: 0}); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return mf, nil
}

// OpenManifest opens an existing manifest at path inside fsys and returns
// its recovered state: the checksum-valid slot with the highest epoch.
func OpenManifest(fsys store.FS, path string) (*ManifestFile, Manifest, error) {
	f, err := fsys.OpenFile(path)
	if err != nil {
		return nil, Manifest{}, err
	}
	m, found, err := readSlots(f)
	if err != nil {
		return nil, Manifest{}, errors.Join(err, f.Close())
	}
	if !found {
		return nil, Manifest{}, errors.Join(ErrNoManifest, f.Close())
	}
	return &ManifestFile{f: f}, m, nil
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

// Commit durably writes m into its slot (Epoch%2) and syncs. On failure
// the previously committed slot is untouched, but the file handle's state
// is unknown; callers treat a failed manifest commit as breaking the
// forest.
func (mf *ManifestFile) Commit(m Manifest) error {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	if mf.closed {
		return store.ErrClosed
	}
	off := int64(m.Epoch%2) * manifestSlotBytes
	if _, err := mf.f.WriteAt(encodeSlot(m), off); err != nil {
		return fmt.Errorf("forest: manifest write: %w", err)
	}
	if err := mf.f.Sync(); err != nil {
		return fmt.Errorf("forest: manifest sync: %w", err)
	}
	return nil
}

// Close releases the manifest handle. Idempotent.
func (mf *ManifestFile) Close() error {
	mf.mu.Lock()
	defer mf.mu.Unlock()
	if mf.closed {
		return nil
	}
	mf.closed = true
	return mf.f.Close()
}
