package node

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

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

// Image is a node's page image: the used prefix of the layout above as
// 8-byte words — header (3 words), region (2k), branches at stride 2k+1,
// records at stride 2k+2 — word i holding page bytes [8i, 8i+8) read as a
// little-endian u64 and kept as that float64's bits, so rectangles read
// as floats and IDs as math.Float64bits of their word, whatever the
// host's byte order. An image is immutable once built: readers test
// entries on its runs with geom.Rect.NextOverlap and hand out Rect views
// into it. An image Decode adopts in place keeps its whole page buffer
// reachable, not only the used prefix.
type Image []float64

const headerWords = fixedHeader / 8

// littleEndian reports whether the host lays a u64 out as its
// little-endian bytes, so that a page's bytes, read in place, are its
// image's words.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

func (m Image) word(i int) uint64 { return math.Float64bits(m[i]) }

// Level reports the node's level (0 = leaf).
func (m Image) Level() int { return int(uint16(m.word(0) >> 16)) }

// id reports the page the image belongs to.
func (m Image) id() page.ID { return page.ID(m.word(1)) }

// counts reports the node's branch and record counts.
func (m Image) counts() (nb, nr int) {
	w := m.word(0)
	return int(uint16(w >> 32)), int(uint16(w >> 48))
}

// Runs returns the image's branch run (stride 2k+1) and record run
// (stride 2k+2) at dimensionality k.
//
//seglint:hotpath
func (m Image) Runs(k int) (branches, records []float64) {
	nb, nr := m.counts()
	b := headerWords + 2*k
	r := b + nb*(2*k+1)
	return m[b:r:r], m[r : r+nr*(2*k+2)]
}

// Child returns the child page of entry i of a branch run at
// dimensionality k.
//
//seglint:hotpath
func Child(branches []float64, k, i int) page.ID {
	return page.ID(math.Float64bits(branches[i*(2*k+1)+2*k]))
}

// RecordAt returns entry i of a record run at dimensionality k: a view of
// its rectangle into the run, and its record ID.
//
//seglint:hotpath
func RecordAt(records []float64, k, i int) (geom.Rect, RecordID) {
	o := i * (2*k + 2)
	return rectAt(records, o, k), RecordID(math.Float64bits(records[o+2*k]))
}

// rectAt views the rectangle whose 2k words start at m[o], capped so an
// append through the view cannot spill into the next words.
func rectAt(m []float64, o, k int) geom.Rect {
	return geom.Rect{Min: m[o : o+k : o+k], Max: m[o+k : o+2*k : o+2*k]}
}

// putRect writes r's corners into the 2k words at m[o].
func putRect(m []float64, o, k int, r geom.Rect) {
	copy(m[o:o+k], r.Min)
	copy(m[o+k:o+2*k], r.Max)
}

// image lays n out as its page image.
func (c Codec) image(n *Node) Image {
	k := c.Dims
	m := make(Image, c.UsedBytes(n)/8)
	m[0] = math.Float64frombits(codecMagic | uint64(uint16(n.Level))<<16 |
		uint64(uint16(len(n.Branches)))<<32 | uint64(uint16(len(n.Records)))<<48)
	m[1] = math.Float64frombits(uint64(n.ID))
	if n.HasRegion() {
		m[2] = math.Float64frombits(flagHasRegion)
		putRect(m, headerWords, k, n.Region)
	}
	o := headerWords + 2*k
	for i := range n.Branches {
		putRect(m, o, k, n.Branches[i].Rect)
		m[o+2*k] = math.Float64frombits(uint64(n.Branches[i].Child))
		o += 2*k + 1
	}
	for i := range n.Records {
		putRect(m, o, k, n.Records[i].Rect)
		m[o+2*k] = math.Float64frombits(uint64(n.Records[i].ID))
		m[o+2*k+1] = math.Float64frombits(uint64(n.Records[i].Span))
		o += 2*k + 2
	}
	return m
}

// point re-points n's rectangles — the region, if n has one, and every
// branch and record — at their words in m, n's image.
func (c Codec) point(n *Node, m Image) {
	k := c.Dims
	if m.word(2)&flagHasRegion != 0 {
		n.Region = rectAt(m, headerWords, k)
	}
	branches, records := m.Runs(k)
	for i := range n.Branches {
		n.Branches[i].Rect = rectAt(branches, i*(2*k+1), k)
	}
	for i := range n.Records {
		n.Records[i].Rect = rectAt(records, i*(2*k+2), k)
	}
}

// Encode returns a fresh page image of n and re-points n's rectangles at
// it. It never writes the floats the old rectangles viewed, so views taken
// before it, such as a copy-on-write pre-image's, keep reading them.
func (c Codec) Encode(n *Node) Image {
	m := c.image(n)
	c.point(n, m)
	return m
}

// Headers returns the writer's form of the node in m: entry slices whose
// rectangles are views into m's floats.
func (c Codec) Headers(m Image) Node {
	nb, nr := m.counts()
	n := Node{
		ID:       m.id(),
		Level:    m.Level(),
		Branches: make([]Branch, nb),
		Records:  make([]Record, nr),
	}
	k := c.Dims
	branches, records := m.Runs(k)
	for i := range n.Branches {
		n.Branches[i].Child = Child(branches, k, i)
	}
	for i := range n.Records {
		n.Records[i].Rect, n.Records[i].ID = RecordAt(records, k, i)
		n.Records[i].Span = page.ID(math.Float64bits(records[i*(2*k+2)+2*k+1]))
	}
	c.point(&n, m)
	return n
}

// Page lays the image m out as a page of pageBytes bytes, zero-padded:
// the bytes Marshal writes for the node m holds.
func (c Codec) Page(m Image, pageBytes int) ([]byte, error) {
	if need := 8 * len(m); need > pageBytes {
		return nil, fmt.Errorf("node: %v needs %d bytes, page is %d", m.id(), need, pageBytes)
	}
	k := c.Dims
	if nb, nr := m.counts(); len(m) != headerWords+2*k+nb*(2*k+1)+nr*(2*k+2) {
		return nil, fmt.Errorf("node: %v entry count overflows encoding", m.id())
	}
	buf := make([]byte, pageBytes)
	for i, w := range m {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(w))
	}
	return buf, nil
}

// Marshal encodes the node into a buffer of exactly pageBytes.
func (c Codec) Marshal(n *Node, pageBytes int) ([]byte, error) {
	return c.Page(c.image(n), pageBytes)
}

// Decode returns the used prefix of a page's bytes as an image, with
// every check Unmarshal makes; want guards against page-table corruption.
// On a little-endian host an 8-byte aligned buf becomes the image itself,
// without a copy, and adopted reports it: the image shares buf's memory,
// so the caller must not write to buf afterwards, nor hand buf on
// (store.Recycle) while anyone may read the image. Go aligns every heap
// object of 16 bytes or more to 8 bytes, so every Store.Read result
// qualifies. Any other buf is copied word by word, and is the caller's
// again. Decode never writes to buf.
func (c Codec) Decode(buf []byte, want page.ID) (m Image, adopted bool, err error) {
	if len(buf) < c.HeaderBytes() {
		return nil, false, fmt.Errorf("node: page %v too small (%d bytes)", want, len(buf))
	}
	if magic := binary.LittleEndian.Uint16(buf[0:2]); magic != codecMagic {
		return nil, false, fmt.Errorf("node: page %v bad magic %#x", want, magic)
	}
	if id := page.ID(binary.LittleEndian.Uint64(buf[8:16])); id != want {
		return nil, false, fmt.Errorf("node: page says it is %v, expected %v", id, want)
	}
	nb := int(binary.LittleEndian.Uint16(buf[4:6]))
	nr := int(binary.LittleEndian.Uint16(buf[6:8]))
	need := c.HeaderBytes() + nb*c.BranchBytes() + nr*c.RecordBytes()
	if need > len(buf) {
		return nil, false, fmt.Errorf("node: page %v declares %d+%d entries exceeding page size", want, nb, nr)
	}
	if p := unsafe.SliceData(buf); littleEndian && uintptr(unsafe.Pointer(p))%8 == 0 {
		// The page's little-endian u64s are the image's words in place.
		m, adopted = unsafe.Slice((*float64)(unsafe.Pointer(p)), need/8), true
	} else {
		m = make(Image, need/8)
		for i, b := 0, buf[:need]; i < len(m); i, b = i+1, b[8:] {
			m[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
	}
	k := c.Dims
	if m.word(2)&flagHasRegion != 0 && invalid(m[headerWords:headerWords+2*k], k, 2*k) >= 0 {
		return nil, false, fmt.Errorf("node: page %v has corrupt region rect", want)
	}
	branches, records := m.Runs(k)
	if i := invalid(branches, k, 2*k+1); i >= 0 {
		return nil, false, fmt.Errorf("node: page %v branch %d has corrupt rect", want, i)
	}
	if i := invalid(records, k, 2*k+2); i >= 0 {
		return nil, false, fmt.Errorf("node: page %v record %d has corrupt rect", want, i)
	}
	return m, adopted, nil
}

// PageBuffer returns the page buffer of pageBytes bytes that Decode
// adopted as m, for store.Recycle once nobody reads m any more. m must be
// an image Decode adopted from a buffer of exactly pageBytes.
func PageBuffer(m Image, pageBytes int) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(m))), pageBytes)
}

// invalid returns the index of the first entry of run, at stride words,
// whose rectangle is not Valid (min ≤ max fails for a NaN too), or -1.
func invalid(run []float64, k, stride int) int {
	for i, o := 0, 0; o < len(run); i, o = i+1, o+stride {
		e := run[o : o+2*k]
		for d := 0; d < k; d++ {
			if !(e[d] <= e[k+d]) {
				return i
			}
		}
	}
	return -1
}

// Unmarshal decodes a page into the writer's form of its node (Decode,
// then Headers). The expected ID guards against page-table corruption.
func (c Codec) Unmarshal(buf []byte, want page.ID) (*Node, error) {
	m, _, err := c.Decode(buf, want)
	if err != nil {
		return nil, err
	}
	n := c.Headers(m)
	return &n, nil
}
