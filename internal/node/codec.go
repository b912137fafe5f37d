package node

import (
	"encoding/binary"
	"fmt"
	"math"

	"segidx/internal/geom"
	"segidx/internal/page"
)

// On-page layout (little endian):
//
//	fixed header (24 bytes):
//	  0  u16  magic 0x5349 ("SI")
//	  2  u16  level
//	  4  u16  branch count
//	  6  u16  record count
//	  8  u64  node page ID (self check)
//	 16  u16  flags (bit 0: node has a skeleton partition region)
//	 18  6 reserved bytes
//	then the partition region rect (2*K*8 bytes; zeroed when absent),
//	then branch entries, then record entries.
//
//	branch entry:  rect (2*K*8 bytes) + u64 child page ID
//	record entry:  rect (2*K*8 bytes) + u64 record ID + u64 span page ID
//
// These sizes determine node fanout for a given page size; with K=2 and the
// paper's 1 KiB leaves a leaf holds 20 records.
const (
	codecMagic    = 0x5349
	fixedHeader   = 24
	flagHasRegion = 1 << 0
)

// Codec marshals nodes of a fixed dimensionality.
type Codec struct {
	Dims int
}

// HeaderBytes is the per-page overhead: the fixed header plus the region
// rectangle.
func (c Codec) HeaderBytes() int { return fixedHeader + c.RectBytes() }

// RectBytes is the encoded size of one rectangle.
func (c Codec) RectBytes() int { return 2 * c.Dims * 8 }

// BranchBytes is the encoded size of one branch entry.
func (c Codec) BranchBytes() int { return c.RectBytes() + 8 }

// RecordBytes is the encoded size of one record entry (leaf data record or
// spanning index record).
func (c Codec) RecordBytes() int { return c.RectBytes() + 16 }

// PayloadBytes is the space available for entries on a page of the given
// size.
func (c Codec) PayloadBytes(pageBytes int) int { return pageBytes - c.HeaderBytes() }

// LeafCapacity is the number of data records a leaf page of the given size
// can hold.
func (c Codec) LeafCapacity(pageBytes int) int {
	return c.PayloadBytes(pageBytes) / c.RecordBytes()
}

// BranchCapacity is the number of branches a non-leaf page can hold when
// reserve (a fraction in (0, 1]) of the payload is reserved for branches.
// With reserve == 1 the whole payload is available (the plain R-Tree case).
func (c Codec) BranchCapacity(pageBytes int, reserve float64) int {
	return int(float64(c.PayloadBytes(pageBytes)) * reserve / float64(c.BranchBytes()))
}

// SpanningCapacity is the number of spanning index records a non-leaf page
// can hold alongside its reserved branch space.
func (c Codec) SpanningCapacity(pageBytes int, reserve float64) int {
	return int(float64(c.PayloadBytes(pageBytes)) * (1 - reserve) / float64(c.RecordBytes()))
}

// UsedBytes is the current encoded size of the node's entries.
func (c Codec) UsedBytes(n *Node) int {
	return c.HeaderBytes() + len(n.Branches)*c.BranchBytes() + len(n.Records)*c.RecordBytes()
}

// Marshal encodes the node into a buffer of exactly pageBytes.
func (c Codec) Marshal(n *Node, pageBytes int) ([]byte, error) {
	if need := c.UsedBytes(n); need > pageBytes {
		return nil, fmt.Errorf("node: %v needs %d bytes, page is %d", n.ID, need, pageBytes)
	}
	if len(n.Branches) > math.MaxUint16 || len(n.Records) > math.MaxUint16 {
		return nil, fmt.Errorf("node: %v entry count overflows encoding", n.ID)
	}
	buf := make([]byte, pageBytes)
	binary.LittleEndian.PutUint16(buf[0:2], codecMagic)
	binary.LittleEndian.PutUint16(buf[2:4], uint16(n.Level))
	binary.LittleEndian.PutUint16(buf[4:6], uint16(len(n.Branches)))
	binary.LittleEndian.PutUint16(buf[6:8], uint16(len(n.Records)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(n.ID))
	off := fixedHeader
	if n.HasRegion() {
		binary.LittleEndian.PutUint16(buf[16:18], flagHasRegion)
		off = c.putRect(buf, off, n.Region)
	} else {
		off += c.RectBytes()
	}
	for i := range n.Branches {
		off = c.putRect(buf, off, n.Branches[i].Rect)
		binary.LittleEndian.PutUint64(buf[off:off+8], uint64(n.Branches[i].Child))
		off += 8
	}
	for i := range n.Records {
		off = c.putRect(buf, off, n.Records[i].Rect)
		binary.LittleEndian.PutUint64(buf[off:off+8], uint64(n.Records[i].ID))
		off += 8
		binary.LittleEndian.PutUint64(buf[off:off+8], uint64(n.Records[i].Span))
		off += 8
	}
	return buf, nil
}

// Unmarshal decodes a page image into a node. The expected ID guards
// against page-table corruption.
func (c Codec) Unmarshal(buf []byte, want page.ID) (*Node, error) {
	if len(buf) < c.HeaderBytes() {
		return nil, fmt.Errorf("node: page %v too small (%d bytes)", want, len(buf))
	}
	if magic := binary.LittleEndian.Uint16(buf[0:2]); magic != codecMagic {
		return nil, fmt.Errorf("node: page %v bad magic %#x", want, magic)
	}
	n := &Node{
		ID:    page.ID(binary.LittleEndian.Uint64(buf[8:16])),
		Level: int(binary.LittleEndian.Uint16(buf[2:4])),
	}
	if n.ID != want {
		return nil, fmt.Errorf("node: page says it is %v, expected %v", n.ID, want)
	}
	nb := int(binary.LittleEndian.Uint16(buf[4:6]))
	nr := int(binary.LittleEndian.Uint16(buf[6:8]))
	need := c.HeaderBytes() + nb*c.BranchBytes() + nr*c.RecordBytes()
	if need > len(buf) {
		return nil, fmt.Errorf("node: page %v declares %d+%d entries exceeding page size", want, nb, nr)
	}
	flags := binary.LittleEndian.Uint16(buf[16:18])
	off := fixedHeader
	// One flat backing array holds every rectangle on the page — the
	// region plus all branch and record rects — so decoding costs O(1)
	// allocations rather than O(entries), and the array is the node's
	// packed run: a decoded node comes sealed (see Node.Seal). The
	// decoded rects are views into it; mutators replace whole Rect
	// headers (they never write the decoded float storage), so the views
	// stay stable for the node's lifetime. See DESIGN.md §8.
	flat := make([]float64, (1+nb+nr)*2*c.Dims)
	n.packed = flat
	fo := 0
	if flags&flagHasRegion != 0 {
		var region geom.Rect
		region, off, fo = c.getRectFlat(buf, off, flat, fo)
		if !region.Valid() {
			return nil, fmt.Errorf("node: page %v has corrupt region rect", want)
		}
		n.Region = region
	} else {
		n.Region, fo = emptyRectFlat(c.Dims, flat, fo)
		off += c.RectBytes()
	}
	n.Branches = make([]Branch, nb)
	for i := 0; i < nb; i++ {
		var r geom.Rect
		r, off, fo = c.getRectFlat(buf, off, flat, fo)
		if !r.Valid() {
			return nil, fmt.Errorf("node: page %v branch %d has corrupt rect", want, i)
		}
		n.Branches[i] = Branch{Rect: r, Child: page.ID(binary.LittleEndian.Uint64(buf[off : off+8]))}
		off += 8
	}
	n.Records = make([]Record, nr)
	for i := 0; i < nr; i++ {
		var r geom.Rect
		r, off, fo = c.getRectFlat(buf, off, flat, fo)
		if !r.Valid() {
			return nil, fmt.Errorf("node: page %v record %d has corrupt rect", want, i)
		}
		n.Records[i] = Record{
			Rect: r,
			ID:   RecordID(binary.LittleEndian.Uint64(buf[off : off+8])),
			Span: page.ID(binary.LittleEndian.Uint64(buf[off+8 : off+16])),
		}
		off += 16
	}
	return n, nil
}

func (c Codec) putRect(buf []byte, off int, r geom.Rect) int {
	for d := 0; d < c.Dims; d++ {
		binary.LittleEndian.PutUint64(buf[off:off+8], math.Float64bits(r.Min[d]))
		off += 8
	}
	for d := 0; d < c.Dims; d++ {
		binary.LittleEndian.PutUint64(buf[off:off+8], math.Float64bits(r.Max[d]))
		off += 8
	}
	return off
}

// getRectFlat decodes one rectangle from buf at off into the 2*Dims floats
// at flat[fo:], returning a Rect whose corners are views into flat. The
// capped slice expressions keep an append on a view from spilling into the
// neighboring rect's storage.
func (c Codec) getRectFlat(buf []byte, off int, flat []float64, fo int) (geom.Rect, int, int) {
	k := c.Dims
	r := geom.Rect{Min: flat[fo : fo+k : fo+k], Max: flat[fo+k : fo+2*k : fo+2*k]}
	for d := 0; d < k; d++ {
		r.Min[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off : off+8]))
		off += 8
	}
	for d := 0; d < k; d++ {
		r.Max[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off : off+8]))
		off += 8
	}
	return r, off, fo + 2*k
}

// emptyRectFlat writes the EmptyRect identity into flat[fo:] and returns a
// view of it (see geom.EmptyRect).
func emptyRectFlat(dims int, flat []float64, fo int) (geom.Rect, int) {
	r := geom.Rect{Min: flat[fo : fo+dims : fo+dims], Max: flat[fo+dims : fo+2*dims : fo+2*dims]}
	for d := 0; d < dims; d++ {
		r.Min[d] = math.Inf(1)
		r.Max[d] = math.Inf(-1)
	}
	return r, fo + 2*dims
}
