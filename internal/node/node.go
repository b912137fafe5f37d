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

// Node is the writer's form of one index page: entry headers whose
// rectangles view the page's Image.
type Node struct {
	ID    page.ID
	Level int // 0 = leaf

	// Region is the pre-allocated partition region of a skeleton index
	// node (Section 4). Skeleton nodes keep covering their partition even
	// while empty, which is what gives the skeleton its regular
	// decomposition. For non-skeleton nodes HasRegion is false and the
	// node covers exactly its content MBR.
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
// The slot it vacates is zeroed: a stale Rect header left in the slice's
// slack would keep the page image it views — a copy-on-write pre-image's,
// once the node is published — reachable for the node's lifetime.
func (n *Node) RemoveRecord(i int) {
	n.Records = slices.Delete(n.Records, i, i+1)
}

// RemoveBranch deletes the branch at index i, preserving order of the rest,
// and zeroes the slot it vacates (see RemoveRecord).
func (n *Node) RemoveBranch(i int) {
	n.Branches = slices.Delete(n.Branches, i, i+1)
}

// CloneHeaders returns the copy-on-write clone of n: a copy of n's entries
// whose rectangles still view n's page image. Sharing is safe because
// images are immutable and mutators replace whole Rect headers (DESIGN.md
// §8); the clone gets an image of its own when it is published. The entry
// slices get room for one more entry, the append that most often follows,
// and the clone is returned by value so the buffer pool can place it
// inside its frame without a separate allocation.
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
