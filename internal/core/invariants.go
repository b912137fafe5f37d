package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"segidx/internal/buffer"
	"segidx/internal/geom"
	"segidx/internal/node"
	"segidx/internal/page"
)

// PathStep identifies one node on the root-to-violation path carried by an
// InvariantError: the node's page ID and its level (leaves are level 0).
type PathStep struct {
	ID    page.ID
	Level int
}

func (s PathStep) String() string { return fmt.Sprintf("%v@%d", s.ID, s.Level) }

// InvariantError is the error type CheckInvariants returns for structural
// violations. Path lists the nodes walked from the root down to the
// violating node, inclusive, so a failure pinpoints where in the tree the
// structure went wrong rather than only what went wrong. Err holds the
// violation itself and is reachable through errors.Unwrap.
type InvariantError struct {
	Path []PathStep
	Err  error
}

func (e *InvariantError) Error() string {
	var b strings.Builder
	b.WriteString("core: invariant violation at ")
	if len(e.Path) == 0 {
		b.WriteString("(unreadable node)")
	}
	for i, s := range e.Path {
		if i > 0 {
			b.WriteString(" -> ")
		}
		b.WriteString(s.String())
	}
	b.WriteString(": ")
	b.WriteString(e.Err.Error())
	return b.String()
}

func (e *InvariantError) Unwrap() error { return e.Err }

// CheckInvariants validates the whole structure and returns the first
// violation found as an *InvariantError (carrying the root-to-violation
// node path), or nil. Checked properties:
//
//   - every node decodes and fits its page (entry counts within capacity);
//   - levels decrease by exactly one along every branch;
//   - every branch rectangle contains the child's cover (content MBR plus
//     skeleton region);
//   - leaf records appear only on leaves; spanning records only on
//     non-leaf nodes with Spanning enabled;
//   - every spanning record is linked to an existing branch of its node,
//     spans that branch's region in a dimension of positive extent, and is
//     contained in the node's own cover;
//   - skeleton sibling regions do not overlap in their interiors;
//   - no page is reachable twice (the structure is a tree);
//   - the recorded height matches the root level;
//   - stored portions in excess of distinct record IDs never exceed the
//     cut-portion gauge (when the gauge is zero the read path skips
//     duplicate elimination, so an under-count would surface duplicates);
//   - every node's published page image decodes (node.Codec.Unmarshal)
//     to the writer's headers bit for bit, in entry order (readers scan
//     the image alone);
//   - births never decrease along the attached sidecar's slot lists.
func (t *Tree) CheckInvariants() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	seen := make(map[page.ID]bool)
	if err := t.checkNode(t.root, nil, seen, true, nil); err != nil {
		return err
	}
	portions, distinct, err := t.recordCountLocked()
	if err != nil {
		return err
	}
	if excess := portions - distinct; excess > t.cutPortions {
		return &InvariantError{
			Path: []PathStep{{ID: t.root, Level: t.height - 1}},
			Err: fmt.Errorf("%d stored portions over %d distinct records exceed the cut-portion gauge %d",
				portions, distinct, t.cutPortions),
		}
	}
	if ref := t.sidecar.Load(); ref != nil {
		return ref.sc.CheckBirths()
	}
	return nil
}

// checkNode validates the subtree rooted at id. path holds the PathSteps of
// the ancestors already walked; every violation is wrapped in an
// *InvariantError extending that path with the current node. The caller
// must hold t.mu.
func (t *Tree) checkNode(id page.ID, parentRect *geom.Rect, seen map[page.ID]bool, isRoot bool, path []PathStep) error {
	n, err := t.fetch(id, nil)
	if err != nil {
		return &InvariantError{
			Path: append(append([]PathStep(nil), path...), PathStep{ID: id, Level: -1}),
			Err:  err,
		}
	}
	path = append(path, PathStep{ID: id, Level: n.Level})
	fail := func(format string, args ...any) error {
		return &InvariantError{
			Path: append([]PathStep(nil), path...),
			Err:  fmt.Errorf(format, args...),
		}
	}
	dims := t.cfg.Dims

	if seen[id] {
		return fail("node %v reachable twice", id)
	}
	seen[id] = true

	if isRoot && n.Level != t.height-1 {
		return fail("root %v at level %d but height is %d", id, n.Level, t.height)
	}

	// Capacity.
	if n.IsLeaf() {
		if len(n.Records) > t.leafCap() {
			return fail("leaf %v holds %d records, capacity %d", id, len(n.Records), t.leafCap())
		}
		if len(n.Branches) != 0 {
			return fail("leaf %v has branches", id)
		}
	} else {
		if len(n.Branches) > t.branchCap(n.Level) {
			return fail("node %v holds %d branches, capacity %d", id, len(n.Branches), t.branchCap(n.Level))
		}
		if !t.fitsBytes(n) {
			return fail("node %v entries use %d bytes, page is %d",
				id, t.codec.UsedBytes(n), t.pageBytes(n.Level))
		}
		if len(n.Branches) == 0 {
			return fail("non-leaf %v has no branches", id)
		}
		if !t.cfg.Spanning && len(n.Records) != 0 {
			return fail("node %v has spanning records but Spanning is disabled", id)
		}
	}

	// Parent containment.
	cover := n.Cover(dims)
	if parentRect != nil && !cover.IsEmptyMarker() && !parentRect.Contains(cover) {
		return fail("node %v cover %v exceeds parent branch rect %v", id, cover, *parentRect)
	}

	// Record validity.
	for i, rec := range n.Records {
		if !rec.Rect.Valid() {
			return fail("node %v record %d invalid rect", id, i)
		}
		if n.IsLeaf() {
			if rec.Span != page.Nil {
				return fail("leaf %v record %d carries a span link", id, i)
			}
			continue
		}
		bi := n.BranchIndex(rec.Span)
		if bi < 0 {
			return fail("node %v spanning record %d links to absent branch %v", id, i, rec.Span)
		}
		if !spansQualify(&rec.Rect, &n.Branches[bi].Rect) {
			return fail("node %v spanning record %d (%v) does not span branch %v",
				id, i, rec.Rect, n.Branches[bi].Rect)
		}
		if !cover.Contains(rec.Rect) {
			return fail("node %v spanning record %d escapes the node cover", id, i)
		}
	}

	// Skeleton regions must be well-formed; sibling overlap is checked
	// during recursion below.
	if n.HasRegion() && !n.Region.Valid() {
		return fail("node %v has invalid region %v", id, n.Region)
	}

	// Recurse.
	for i := range n.Branches {
		b := n.Branches[i]
		if !b.Rect.Valid() {
			return fail("node %v branch %d invalid rect", id, i)
		}
		child, err := t.fetch(b.Child, nil)
		if err != nil {
			return fail("node %v branch %d: %w", id, i, err)
		}
		if child.Level != n.Level-1 {
			return fail("node %v (level %d) points to child %v at level %d", id, n.Level, b.Child, child.Level)
		}
		if child.HasRegion() {
			for j := i + 1; j < len(n.Branches); j++ {
				sib, err := t.fetch(n.Branches[j].Child, nil)
				if err != nil {
					return fail("node %v branch %d: %w", id, j, err)
				}
				if sib.HasRegion() && child.Region.OverlapArea(sib.Region) > 0 {
					return fail("skeleton regions of %v and %v overlap", b.Child, n.Branches[j].Child)
				}
			}
		}
		rect := b.Rect
		if err := t.checkNode(b.Child, &rect, seen, false, path); err != nil {
			return err
		}
	}

	// Readers scan the published image alone. Checked last, so that
	// headers changed against the rules fail on what they broke first.
	if err := t.checkImage(n); err != nil {
		return fail("node %v: %w", id, err)
	}
	return nil
}

// checkImage decodes the page image readers resolve for n's page with
// Codec.Unmarshal and compares it with n, the writer's headers, bit for
// bit. The caller must hold t.mu and a pin on n, so the lookup is a table
// hit, counted in a tally nobody settles.
func (t *Tree) checkImage(n *node.Node) error {
	img, err := t.pool.GetVersion(n.ID, t.state.Load().epoch, new(buffer.Tally))
	if err != nil {
		return err
	}
	if img == nil {
		return errors.New("no published page image")
	}
	buf, err := t.codec.Page(img, t.pageBytes(n.Level))
	if err != nil {
		return err
	}
	if _, err := t.codec.Unmarshal(buf, n.ID); err != nil {
		return fmt.Errorf("published image: %w", err)
	}
	if want, err := t.codec.Marshal(n, len(buf)); err != nil || !bytes.Equal(buf, want) {
		return fmt.Errorf("headers differ from their published image (%v)", err)
	}
	return nil
}

// RecordCount walks the tree and counts stored record portions (leaf
// records plus spanning records) and distinct record IDs.
func (t *Tree) RecordCount() (portions int, distinct int, err error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.recordCountLocked()
}

// recordCountLocked counts stored portions and distinct record IDs. The
// caller must hold t.mu, so the published state it walks is the tree's.
func (t *Tree) recordCountLocked() (portions int, distinct int, err error) {
	ids := make(map[node.RecordID]bool)
	err = t.VisitPortions(func(_ int, e Entry) bool {
		portions++
		ids[e.ID] = true
		return true
	})
	return portions, len(ids), err
}
