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
func (n *Node) RemoveRecord(i int) {
	n.Records = append(n.Records[:i], n.Records[i+1:]...)
}

// RemoveBranch deletes the branch at index i, preserving order of the rest.
func (n *Node) RemoveBranch(i int) {
	n.Branches = append(n.Branches[:i], n.Branches[i+1:]...)
}

// Clone returns a deep copy of the node (used by the buffer pool tests and
// the invariant checker snapshots).
func (n *Node) Clone() *Node {
	c := &Node{ID: n.ID, Level: n.Level}
	if n.Region.Dims() > 0 {
		c.Region = n.Region.Clone()
	}
	c.Branches = make([]Branch, len(n.Branches))
	for i, b := range n.Branches {
		c.Branches[i] = Branch{Rect: b.Rect.Clone(), Child: b.Child}
	}
	c.Records = make([]Record, len(n.Records))
	for i, r := range n.Records {
		c.Records[i] = Record{Rect: r.Rect.Clone(), ID: r.ID, Span: r.Span}
	}
	return c
}

// CloneCompact returns a deep copy of n whose rectangles all view one flat
// float backing array. It is the copy-on-write primitive of the buffer
// pool's page versioning: a writer clones the published node and mutates
// the clone, so the per-clone cost is a handful of allocations rather than
// two slices per rectangle as with Clone. The views are capped so an
// append through any rect cannot spill into its neighbor's storage. The
// entry slices get room for one more entry: a clone exists because a
// mutation follows, most often a single append, which then neither
// reallocates nor leaves the node carrying append's doubling as slack
// until its next clone.
func (n *Node) CloneCompact() *Node {
	c := &Node{ID: n.ID, Level: n.Level}
	k := 0
	if len(n.Branches) > 0 {
		k = n.Branches[0].Rect.Dims()
	} else if len(n.Records) > 0 {
		k = n.Records[0].Rect.Dims()
	} else if n.Region.Dims() > 0 {
		k = n.Region.Dims()
	}
	need := 2 * k * (len(n.Branches) + len(n.Records))
	if n.Region.Dims() > 0 {
		need += 2 * n.Region.Dims()
	}
	if need == 0 {
		return c
	}
	flat := make([]float64, need)
	off := 0
	if n.Region.Dims() > 0 {
		c.Region = n.Region.CopyInto(flat, off)
		off += 2 * n.Region.Dims()
	}
	if len(n.Branches) > 0 {
		c.Branches = make([]Branch, len(n.Branches), len(n.Branches)+1)
		for i, b := range n.Branches {
			c.Branches[i] = Branch{Rect: b.Rect.CopyInto(flat, off), Child: b.Child}
			off += 2 * k
		}
	}
	if len(n.Records) > 0 {
		c.Records = make([]Record, len(n.Records), len(n.Records)+1)
		for i, r := range n.Records {
			c.Records[i] = Record{Rect: r.Rect.CopyInto(flat, off), ID: r.ID, Span: r.Span}
			off += 2 * k
		}
	}
	return c
}
