package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"segidx/internal/buffer"
	"segidx/internal/node"
	"segidx/internal/page"
	"segidx/internal/store"
)

// Tree metadata is kept on a dedicated page — always the first page
// allocated in the store — so an index over a durable store can be
// reopened. Layout (little endian):
//
//	0  u32 magic "SGTR"
//	4  u16 version
//	6  u16 dims
//	8  u64 root page ID
//	16 u32 height
//	20 u32 reserved
//	24 u64 logical record count
//	32 u32 leaf page bytes
//	36 u16 growth factor
//	38 u8  spanning flag
//	39 u8  cut-portion gauge present (images written before the gauge
//	       existed have 0 here; see Open for the conservative fallback)
//	40 u64 cut-portion gauge (stored portions in excess of records)
//	48 u64 reserved, written 0 (older images may hold a forest flush
//	       epoch here, which is ignored)
const (
	metaMagic     = 0x53475452
	metaVersion   = 1
	metaPageBytes = 64
)

// metaPageID is the page every tree writes its metadata to: the first
// allocation of a fresh store.
var metaPageID = page.ID(1)

// ErrNoMeta is returned by Open when the store holds no tree metadata.
var ErrNoMeta = errors.New("core: store has no tree metadata (was Flush called before close?)")

// writeMeta serializes the tree metadata to the metadata page. The caller
// must hold the write lock on t.mu.
func (t *Tree) writeMeta() error {
	buf := make([]byte, metaPageBytes)
	binary.LittleEndian.PutUint32(buf[0:4], metaMagic)
	binary.LittleEndian.PutUint16(buf[4:6], metaVersion)
	binary.LittleEndian.PutUint16(buf[6:8], uint16(t.cfg.Dims))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(t.root))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(t.height))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(t.size))
	binary.LittleEndian.PutUint32(buf[32:36], uint32(t.cfg.Sizes.LeafBytes))
	binary.LittleEndian.PutUint16(buf[36:38], uint16(t.cfg.Sizes.Growth))
	if t.cfg.Spanning {
		buf[38] = 1
	}
	buf[39] = 1
	binary.LittleEndian.PutUint64(buf[40:48], uint64(t.cutPortions))
	return t.store.Write(metaPageID, buf)
}

// Meta is the durable identity of a persisted tree, readable without
// opening it.
type Meta struct {
	Dims      int
	LeafBytes int
	Growth    int
	Spanning  bool
}

// ReadMeta reads a persisted tree's metadata from the store.
func ReadMeta(st store.Store) (Meta, error) {
	buf, err := st.Read(metaPageID)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return Meta{}, ErrNoMeta
		}
		return Meta{}, err
	}
	if len(buf) < metaPageBytes || binary.LittleEndian.Uint32(buf[0:4]) != metaMagic {
		return Meta{}, ErrNoMeta
	}
	return Meta{
		Dims:      int(binary.LittleEndian.Uint16(buf[6:8])),
		LeafBytes: int(binary.LittleEndian.Uint32(buf[32:36])),
		Growth:    int(binary.LittleEndian.Uint16(buf[36:38])),
		Spanning:  buf[38] == 1,
	}, nil
}

// Open restores a tree previously persisted to the store with Flush. The
// configuration must match the one the tree was created with (dimensions,
// page sizes, and spanning mode are verified against the metadata).
func Open(cfg Config, st store.Store) (*Tree, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	buf, err := st.Read(metaPageID)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			return nil, ErrNoMeta
		}
		return nil, err
	}
	if len(buf) < metaPageBytes || binary.LittleEndian.Uint32(buf[0:4]) != metaMagic {
		return nil, ErrNoMeta
	}
	if v := binary.LittleEndian.Uint16(buf[4:6]); v != metaVersion {
		return nil, fmt.Errorf("core: metadata version %d not supported", v)
	}
	if d := int(binary.LittleEndian.Uint16(buf[6:8])); d != cfg.Dims {
		return nil, fmt.Errorf("core: store has %d-dimensional index, config says %d", d, cfg.Dims)
	}
	if lb := int(binary.LittleEndian.Uint32(buf[32:36])); lb != cfg.Sizes.LeafBytes {
		return nil, fmt.Errorf("core: store uses %d-byte leaves, config says %d", lb, cfg.Sizes.LeafBytes)
	}
	if g := int(binary.LittleEndian.Uint16(buf[36:38])); g != cfg.Sizes.Growth {
		return nil, fmt.Errorf("core: store uses growth %d, config says %d", g, cfg.Sizes.Growth)
	}
	if sp := buf[38] == 1; sp != cfg.Spanning {
		return nil, fmt.Errorf("core: store spanning=%v, config says %v", sp, cfg.Spanning)
	}
	t := &Tree{
		cfg:       cfg,
		codec:     node.Codec{Dims: cfg.Dims},
		store:     st,
		modCounts: make(map[page.ID]uint64),
		root:      page.ID(binary.LittleEndian.Uint64(buf[8:16])),
		height:    int(binary.LittleEndian.Uint32(buf[16:20])),
		size:      int(binary.LittleEndian.Uint64(buf[24:32])),
	}
	if buf[39] == 1 {
		t.cutPortions = int(binary.LittleEndian.Uint64(buf[40:48]))
	} else if cfg.Spanning {
		// Image predates the gauge: the true excess is unknown, so pin
		// it high enough that deletes can never drive it to zero and
		// duplicate elimination stays on for the tree's lifetime.
		t.cutPortions = int(^uint(0) >> 2)
	}
	// The image does not carry the ID set; treat every future insert as a
	// potential ID reuse.
	t.ids.markFull()
	t.pool = buffer.New(st, t.codec, cfg.PoolBytes)
	if t.root == page.Nil || t.height < 1 {
		return nil, errors.New("core: corrupt tree metadata")
	}
	// Sanity-check the root decodes at the expected level.
	img, err := t.pool.GetVersion(t.root, 0, new(buffer.Tally))
	if err != nil {
		return nil, fmt.Errorf("core: open root: %w", err)
	}
	if level := img.Level(); level != t.height-1 {
		return nil, fmt.Errorf("core: root level %d does not match height %d", level, t.height)
	}
	t.publishState(1)
	return t, nil
}
