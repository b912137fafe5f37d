// Package node defines the in-memory and on-page representation of segment
// index nodes.
//
// A node is either a leaf (level 0) holding data records, or a non-leaf node
// holding branches to child nodes. Under the paper's first tactic (Section
// 2.1.1), non-leaf nodes additionally hold spanning index records: data
// records that span the region of at least one child branch, each linked to
// the branch it spans.
//
// Fanout is not configured directly; it derives from the node's page size
// and the byte size of each entry under the binary codec in this package,
// exactly as in a disk-resident index.
package node

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"segidx/internal/geom"
	"segidx/internal/page"
)

// RecordID identifies a logical data record. When a record is cut into
// spanning and remnant portions (Section 3.1.1), every portion carries the
// same RecordID, which is how deletion and result deduplication find all
// pieces of one logical record.
type RecordID uint64

// Branch is a non-leaf entry: the minimal bounding rectangle of a child
// node together with its page ID.
type Branch struct {
	Rect  geom.Rect
	Child page.ID
}

// Record is a data entry. In a leaf it is a stored data item (Span ==
// page.Nil). In a non-leaf node it is a spanning index record and Span holds
// the page ID of the child branch whose region it spans — the paper's "list
// of spanning index records" associated with each branch, kept here as a
// tag so the linkage survives branch reordering during splits.
type Record struct {
	Rect geom.Rect
	ID   RecordID
	Span page.ID
}

// IsSpanning reports whether the record is stored as a spanning index
// record (linked to a branch) rather than a leaf data record.
func (r Record) IsSpanning() bool { return r.Span != page.Nil }

// Node is the in-memory image of one index page.
type Node struct {
	ID    page.ID
	Level int // 0 = leaf

	// Region is the pre-allocated partition region of a skeleton index
	// node (Section 4). Skeleton nodes keep covering their partition even
	// while empty, which is what gives the skeleton its regular
	// decomposition. For non-skeleton nodes Region is the EmptyRect
	// marker and the node covers exactly its content MBR.
	Region geom.Rect

	// Branches are the child pointers of a non-leaf node. Empty for
	// leaves.
	Branches []Branch

	// Records holds data records (leaf) or spanning index records
	// (non-leaf, each tagged with the child branch it spans).
	Records []Record

	// packed is the sealed key run every Rect above views (see Seal); nil
	// while the node is unsealed. Every node a reader can reach is sealed.
	packed []float64
}

// HasRegion reports whether the node carries a skeleton partition region.
func (n *Node) HasRegion() bool {
	return n.Region.Dims() > 0 && !n.Region.IsEmptyMarker()
}

// Cover computes the rectangle the parent's branch entry must carry: the
// content MBR unioned with the skeleton partition region, if any.
func (n *Node) Cover(dims int) geom.Rect {
	mbr := n.MBR(dims)
	if n.HasRegion() {
		mbr.ExpandInPlace(n.Region)
	}
	return mbr
}

// IsLeaf reports whether the node is at level 0.
func (n *Node) IsLeaf() bool { return n.Level == 0 }

// MBR computes the minimal bounding rectangle of everything stored in or
// under the node: the union of all branch rectangles and all record
// rectangles. This is the rectangle the parent's branch entry must carry.
// Spanning records are included because a spanning record may extend beyond
// the branch it spans (it is only guaranteed to be inside the node's own
// region).
func (n *Node) MBR(dims int) geom.Rect {
	mbr := geom.EmptyRect(dims)
	for i := range n.Branches {
		mbr.ExpandInPlace(n.Branches[i].Rect)
	}
	for i := range n.Records {
		mbr.ExpandInPlace(n.Records[i].Rect)
	}
	return mbr
}

// BranchIndex returns the position of the branch pointing to child, or -1.
func (n *Node) BranchIndex(child page.ID) int {
	for i := range n.Branches {
		if n.Branches[i].Child == child {
			return i
		}
	}
	return -1
}

// SpanningFor returns the indexes of records linked to the given child
// branch.
func (n *Node) SpanningFor(child page.ID) []int {
	var out []int
	for i := range n.Records {
		if n.Records[i].Span == child {
			out = append(out, i)
		}
	}
	return out
}

// RemoveRecord deletes the record at index i, preserving order of the rest.
// The slot it vacates is zeroed: a stale Rect header left in the slice's
// slack would keep the float run it views — a copy-on-write pre-image's,
// once the node is sealed — reachable for the node's lifetime.
func (n *Node) RemoveRecord(i int) {
	n.Records = slices.Delete(n.Records, i, i+1)
}

// RemoveBranch deletes the branch at index i, preserving order of the rest,
// and zeroes the slot it vacates (see RemoveRecord).
func (n *Node) RemoveBranch(i int) {
	n.Branches = slices.Delete(n.Branches, i, i+1)
}

// CloneHeaders returns the copy-on-write clone of n: a node whose entry
// slices copy n's entries, Rect headers included, so its rectangles share
// n's float storage. The clone is unsealed. Sharing is safe because the
// floats are write-once (DESIGN.md §8): mutators replace whole Rect headers
// and never write through one, so n — the pre-image snapshots keep reading
// — keeps its floats, and the clone's Seal copies what it holds into a run
// of its own. The entry slices get room for one more entry: a clone exists
// because a mutation follows, most often a single append, which then
// neither reallocates nor leaves the node carrying append's doubling as
// slack until its next clone. The clone is returned by value so the buffer
// pool can place it inside its frame without a separate allocation.
func (n *Node) CloneHeaders() Node {
	c := Node{ID: n.ID, Level: n.Level, Region: n.Region}
	if len(n.Branches) > 0 {
		c.Branches = make([]Branch, len(n.Branches), len(n.Branches)+1)
		copy(c.Branches, n.Branches)
	}
	if len(n.Records) > 0 {
		c.Records = make([]Record, len(n.Records), len(n.Records)+1)
		copy(c.Records, n.Records)
	}
	return c
}

// Seal packs every rectangle of n into one fresh flat run — the region
// slot, then the branches, then the records, each 2k floats laid out
// [min₀…min_{k−1}, max₀…max_{k−1}] — and re-points each Rect header at its
// slot, so the node reads exactly like one Codec.Unmarshal decoded. A node
// without a region gets the EmptyRect marker in its region slot. A reader
// scans the run with geom.Rect.NextOverlap instead of testing each entry's
// Rect; Keys hands it out. Sealing allocates one float array and never
// writes the storage the old headers viewed, so views taken before it keep
// reading the same floats.
func (n *Node) Seal(k int) {
	s := 2 * k
	flat := make([]float64, (1+len(n.Branches)+len(n.Records))*s)
	if n.Region.Dims() == k {
		n.Region = n.Region.CopyInto(flat, 0)
	} else {
		n.Region, _ = emptyRectFlat(k, flat, 0)
	}
	off := s
	for i := range n.Branches {
		n.Branches[i].Rect = n.Branches[i].Rect.CopyInto(flat, off)
		off += s
	}
	for i := range n.Records {
		n.Records[i].Rect = n.Records[i].Rect.CopyInto(flat, off)
		off += s
	}
	n.packed = flat
}

// Keys returns the branch and record rectangles of n's packed run at
// dimensionality k, each a stride-2k run in entry order. ok is false when
// n is unsealed or its run does not match its entry counts: such a node
// must never reach a reader.
func (n *Node) Keys(k int) (branches, records []float64, ok bool) {
	s := 2 * k
	b := s * (1 + len(n.Branches))
	if len(n.packed) != b+s*len(n.Records) {
		return nil, nil, false
	}
	return n.packed[s:b], n.packed[b:], true
}

// CheckSeal returns nil when n is sealed and its packed run holds every
// branch and record rectangle bit for bit, in entry order, and otherwise
// describes the first disagreement.
func (n *Node) CheckSeal(k int) error {
	if n.packed == nil {
		return errors.New("node is not sealed")
	}
	branches, records, ok := n.Keys(k)
	if !ok {
		return fmt.Errorf("packed run of %d floats does not fit %d branches and %d records",
			len(n.packed), len(n.Branches), len(n.Records))
	}
	s := 2 * k
	for i := range n.Branches {
		if !sameBits(branches[i*s:(i+1)*s], n.Branches[i].Rect) {
			return fmt.Errorf("branch %d rect %v differs from its packed key", i, n.Branches[i].Rect)
		}
	}
	for i := range n.Records {
		if !sameBits(records[i*s:(i+1)*s], n.Records[i].Rect) {
			return fmt.Errorf("record %d rect %v differs from its packed key", i, n.Records[i].Rect)
		}
	}
	return nil
}

// sameBits reports whether key holds r's corners with identical bits.
func sameBits(key []float64, r geom.Rect) bool {
	k := len(key) / 2
	if len(r.Min) != k || len(r.Max) != k {
		return false
	}
	for d := 0; d < k; d++ {
		if math.Float64bits(key[d]) != math.Float64bits(r.Min[d]) ||
			math.Float64bits(key[k+d]) != math.Float64bits(r.Max[d]) {
			return false
		}
	}
	return true
}
