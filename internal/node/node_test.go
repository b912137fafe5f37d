package node

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"segidx/internal/geom"
	"segidx/internal/page"
)

func TestCapacities(t *testing.T) {
	c := Codec{Dims: 2}
	// With K=2: rect 32 bytes, branch 40, record 48, header 16.
	if got := c.RectBytes(); got != 32 {
		t.Errorf("RectBytes = %d, want 32", got)
	}
	if got := c.BranchBytes(); got != 40 {
		t.Errorf("BranchBytes = %d, want 40", got)
	}
	if got := c.RecordBytes(); got != 48 {
		t.Errorf("RecordBytes = %d, want 48", got)
	}
	if got := c.HeaderBytes(); got != 56 {
		t.Errorf("HeaderBytes = %d, want 56", got)
	}
	if got := c.LeafCapacity(1024); got != 20 {
		t.Errorf("LeafCapacity(1024) = %d, want 20", got)
	}
	if got := c.BranchCapacity(2048, 1.0); got != 49 {
		t.Errorf("BranchCapacity(2048, 1) = %d, want 49", got)
	}
	// Paper: 2/3 of entries reserved for branches.
	if got := c.BranchCapacity(2048, 2.0/3.0); got != 33 {
		t.Errorf("BranchCapacity(2048, 2/3) = %d, want 33", got)
	}
	if got := c.SpanningCapacity(2048, 2.0/3.0); got != 13 {
		t.Errorf("SpanningCapacity(2048, 2/3) = %d, want 13", got)
	}
	if got := c.SpanningCapacity(2048, 1.0); got != 0 {
		t.Errorf("SpanningCapacity(2048, 1) = %d, want 0", got)
	}
}

func randNode(rng *rand.Rand, level, nb, nr int) *Node {
	n := &Node{ID: page.ID(rng.Uint64()%1e6 + 1), Level: level}
	for i := 0; i < nb; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		n.Branches = append(n.Branches, Branch{
			Rect:  geom.Rect2(x, y, x+rng.Float64()*100, y+rng.Float64()*100),
			Child: page.ID(rng.Uint64()%1e6 + 1),
		})
	}
	for i := 0; i < nr; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		span := page.Nil
		if level > 0 && nb > 0 {
			span = n.Branches[rng.Intn(nb)].Child
		}
		n.Records = append(n.Records, Record{
			Rect: geom.Rect2(x, y, x+rng.Float64()*100, y),
			ID:   RecordID(rng.Uint64()),
			Span: span,
		})
	}
	return n
}

func nodesEqual(a, b *Node) bool {
	if a.ID != b.ID || a.Level != b.Level ||
		len(a.Branches) != len(b.Branches) || len(a.Records) != len(b.Records) {
		return false
	}
	for i := range a.Branches {
		if a.Branches[i].Child != b.Branches[i].Child || !a.Branches[i].Rect.Equal(b.Branches[i].Rect) {
			return false
		}
	}
	for i := range a.Records {
		if a.Records[i].ID != b.Records[i].ID || a.Records[i].Span != b.Records[i].Span ||
			!a.Records[i].Rect.Equal(b.Records[i].Rect) {
			return false
		}
	}
	return true
}

func TestCodecRoundTrip(t *testing.T) {
	c := Codec{Dims: 2}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		level := rng.Intn(3)
		nb, nr := 0, 0
		if level == 0 {
			nr = rng.Intn(20)
		} else {
			nb = rng.Intn(20) + 1
			nr = rng.Intn(10)
		}
		n := randNode(rng, level, nb, nr)
		pageBytes := c.UsedBytes(n) + rng.Intn(200)
		buf, err := c.Marshal(n, pageBytes)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		if len(buf) != pageBytes {
			t.Fatalf("Marshal returned %d bytes, want %d", len(buf), pageBytes)
		}
		got, err := c.Unmarshal(buf, n.ID)
		if err != nil {
			t.Fatalf("Unmarshal: %v", err)
		}
		if !nodesEqual(n, got) {
			t.Fatalf("round trip diverged:\n n=%+v\ngot=%+v", n, got)
		}
	}
}

func TestCodecRejectsOversizedNode(t *testing.T) {
	c := Codec{Dims: 2}
	n := randNode(rand.New(rand.NewSource(1)), 0, 0, 30)
	if _, err := c.Marshal(n, 256); err == nil {
		t.Fatal("Marshal accepted node larger than page")
	}
}

func TestCodecRejectsCorruptPages(t *testing.T) {
	c := Codec{Dims: 2}
	n := randNode(rand.New(rand.NewSource(2)), 1, 3, 2)
	buf, err := c.Marshal(n, 1024)
	if err != nil {
		t.Fatal(err)
	}

	// Wrong expected ID.
	if _, err := c.Unmarshal(buf, n.ID+1); err == nil || !strings.Contains(err.Error(), "expected") {
		t.Errorf("ID mismatch not caught: %v", err)
	}
	// Bad magic.
	bad := append([]byte(nil), buf...)
	bad[0] = 0xFF
	if _, err := c.Unmarshal(bad, n.ID); err == nil {
		t.Error("bad magic not caught")
	}
	// Entry counts exceeding page.
	bad = append([]byte(nil), buf...)
	bad[4], bad[5] = 0xFF, 0xFF
	if _, err := c.Unmarshal(bad, n.ID); err == nil {
		t.Error("oversized entry count not caught")
	}
	// Truncated page.
	if _, err := c.Unmarshal(buf[:8], n.ID); err == nil {
		t.Error("truncated page not caught")
	}
	// Corrupt rect (NaN / inverted) caught.
	bad = append([]byte(nil), buf...)
	for i := c.HeaderBytes(); i < c.HeaderBytes()+8; i++ {
		bad[i] = 0xFF // NaN pattern in first branch rect Min[0]
	}
	if _, err := c.Unmarshal(bad, n.ID); err == nil {
		t.Error("corrupt rect not caught")
	}
}

func TestCodecRegionRoundTrip(t *testing.T) {
	c := Codec{Dims: 2}
	n := &Node{ID: 5, Level: 0, Region: geom.Rect2(10, 20, 30, 40)}
	n.Records = append(n.Records, Record{Rect: geom.Rect2(12, 22, 14, 24), ID: 1})
	buf, err := c.Marshal(n, 1024)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Unmarshal(buf, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasRegion() || !got.Region.Equal(n.Region) {
		t.Fatalf("region lost: %v", got.Region)
	}

	// A node without a region decodes to the empty marker.
	n2 := &Node{ID: 6, Level: 0}
	buf2, err := c.Marshal(n2, 1024)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := c.Unmarshal(buf2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got2.HasRegion() {
		t.Fatal("phantom region decoded")
	}
}

func TestCoverIncludesRegion(t *testing.T) {
	n := &Node{ID: 1, Level: 0, Region: geom.Rect2(0, 0, 100, 100)}
	n.Records = append(n.Records, Record{Rect: geom.Rect2(40, 40, 160, 60), ID: 1})
	cover := n.Cover(2)
	want := geom.Rect2(0, 0, 160, 100)
	if !cover.Equal(want) {
		t.Fatalf("Cover = %v, want %v", cover, want)
	}
	// Empty skeleton node still covers its region.
	empty := &Node{ID: 2, Level: 0, Region: geom.Rect2(5, 5, 10, 10)}
	if !empty.Cover(2).Equal(geom.Rect2(5, 5, 10, 10)) {
		t.Fatalf("empty skeleton Cover = %v", empty.Cover(2))
	}
}

func TestMBRIncludesSpanningRecords(t *testing.T) {
	n := &Node{ID: 1, Level: 1}
	n.Branches = append(n.Branches, Branch{Rect: geom.Rect2(10, 10, 20, 20), Child: 2})
	// Spanning record linked to child 2, sticking out beyond the branch.
	n.Records = append(n.Records, Record{Rect: geom.Rect2(5, 15, 25, 15), ID: 9, Span: 2})
	mbr := n.MBR(2)
	want := geom.Rect2(5, 10, 25, 20)
	if !mbr.Equal(want) {
		t.Fatalf("MBR = %v, want %v", mbr, want)
	}
}

func TestBranchIndexAndSpanningFor(t *testing.T) {
	n := &Node{ID: 1, Level: 1}
	n.Branches = []Branch{{Child: 10}, {Child: 20}}
	n.Records = []Record{
		{ID: 1, Span: 10},
		{ID: 2, Span: 20},
		{ID: 3, Span: 10},
	}
	if got := n.BranchIndex(20); got != 1 {
		t.Errorf("BranchIndex(20) = %d, want 1", got)
	}
	if got := n.BranchIndex(99); got != -1 {
		t.Errorf("BranchIndex(99) = %d, want -1", got)
	}
	got := n.SpanningFor(10)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("SpanningFor(10) = %v, want [0 2]", got)
	}
}

func TestRemoveEntries(t *testing.T) {
	n := &Node{ID: 1, Level: 1}
	n.Branches = []Branch{{Child: 1}, {Child: 2}, {Child: 3}}
	n.RemoveBranch(1)
	if len(n.Branches) != 2 || n.Branches[1].Child != 3 {
		t.Errorf("RemoveBranch: %+v", n.Branches)
	}
	n.Records = []Record{{ID: 1}, {ID: 2}, {ID: 3, Rect: geom.Rect2(0, 0, 1, 1)}}
	n.RemoveRecord(0)
	if len(n.Records) != 2 || n.Records[0].ID != 2 {
		t.Errorf("RemoveRecord: %+v", n.Records)
	}
	// The vacated slots hold no stale header that could keep a float run
	// reachable.
	if stale := n.Records[:3][2]; stale.Rect.Min != nil || stale.ID != 0 {
		t.Errorf("RemoveRecord left %+v in the slack", stale)
	}
	if stale := n.Branches[:3][2]; stale.Child != 0 {
		t.Errorf("RemoveBranch left %+v in the slack", stale)
	}
}

// sharesFloats reports whether a and b view the same float storage.
func sharesFloats(a, b geom.Rect) bool { return &a.Min[0] == &b.Min[0] }

// viewsImage reports whether every rectangle of n views its words in m.
func viewsImage(n *Node, m Image, k int) bool {
	branches, records := m.Runs(k)
	for i := range n.Branches {
		if !sharesFloats(n.Branches[i].Rect, rectAt(branches, i*(2*k+1), k)) {
			return false
		}
	}
	for i := range n.Records {
		if !sharesFloats(n.Records[i].Rect, rectAt(records, i*(2*k+2), k)) {
			return false
		}
	}
	return !n.HasRegion() || sharesFloats(n.Region, rectAt(m, headerWords, k))
}

// TestDecodeMatchesUnmarshal checks that a page's image, read by Decode,
// is the node Unmarshal returns: the same entries through the readers'
// accessors, headers that view the image, and the page's bytes again.
func TestDecodeMatchesUnmarshal(t *testing.T) {
	c := Codec{Dims: 2}
	rng := rand.New(rand.NewSource(11))
	withRegion := randNode(rng, 0, 0, 5)
	withRegion.Region = geom.Rect2(-10, -10, 2000, 2000)
	for _, n := range []*Node{randNode(rng, 0, 0, 7), randNode(rng, 1, 5, 3), {ID: 9}, withRegion} {
		buf, err := c.Marshal(n, 2048)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := c.Decode(buf, n.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Unmarshal(buf, n.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !nodesEqual(got, n) || got.HasRegion() != n.HasRegion() {
			t.Fatalf("Unmarshal(%v) = %+v, want %+v", n.ID, got, n)
		}
		if len(m)*8 != c.UsedBytes(n) || m.id() != n.ID || m.Level() != n.Level {
			t.Fatalf("image of %v: %d words, %v@%d", n.ID, len(m), m.id(), m.Level())
		}
		branches, records := m.Runs(2)
		if len(branches) != 5*len(n.Branches) || len(records) != 6*len(n.Records) {
			t.Fatalf("Runs = %d branch and %d record words", len(branches), len(records))
		}
		for i := range n.Branches {
			if Child(branches, 2, i) != n.Branches[i].Child {
				t.Fatalf("branch %d child %v, want %v", i, Child(branches, 2, i), n.Branches[i].Child)
			}
		}
		for i := range n.Records {
			r, id := RecordAt(records, 2, i)
			if id != n.Records[i].ID || !r.Equal(n.Records[i].Rect) {
				t.Fatalf("record %d reads (%v, %d), want (%v, %d)", i, r, id, n.Records[i].Rect, n.Records[i].ID)
			}
		}
		h := c.Headers(m)
		if !nodesEqual(&h, n) || !viewsImage(&h, m, 2) {
			t.Fatalf("Headers(%v) = %+v, want %+v viewing the image", n.ID, h, n)
		}
		again, err := c.Page(m, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, buf) {
			t.Fatalf("Page of the decoded image of %v differs at %s", n.ID, diffOffsets(again, buf))
		}
	}
}

func TestCloneHeadersSharesFloats(t *testing.T) {
	c := Codec{Dims: 2}
	n := randNode(rand.New(rand.NewSource(3)), 1, 2, 2)
	buf, err := c.Marshal(n, 1024)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := c.Decode(buf, n.ID)
	if err != nil {
		t.Fatal(err)
	}
	pre := c.Headers(m)
	clone := pre.CloneHeaders()
	if !nodesEqual(&clone, &pre) {
		t.Fatal("header clone differs from its source")
	}
	// The clone's rectangles view the pre-image's page image.
	if !viewsImage(&clone, m, 2) {
		t.Fatal("header clone copied its floats")
	}
	// The entry slices are the clone's own.
	clone.Records[0].ID = 12345
	if pre.Records[0].ID == 12345 {
		t.Fatal("header clone shares its record slice")
	}
}

func TestEncodeRoundTripsThroughMarshal(t *testing.T) {
	c := Codec{Dims: 2}
	rng := rand.New(rand.NewSource(5))
	nodes := []*Node{randNode(rng, 0, 0, 9), randNode(rng, 2, 6, 4), {ID: 4}}
	withRegion := randNode(rng, 0, 0, 3)
	withRegion.Region = geom.Rect2(0, 0, 2000, 2000)
	nodes = append(nodes, withRegion)
	for _, n := range nodes {
		want, err := c.Marshal(n, 2048)
		if err != nil {
			t.Fatal(err)
		}
		m := c.Encode(n)
		if !viewsImage(n, m, 2) {
			t.Fatalf("Encode left %v's rectangles off its image", n.ID)
		}
		img, err := c.Page(m, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, want) {
			t.Fatalf("the image of %v is not its page at %s", n.ID, diffOffsets(img, want))
		}
		got, err := c.Marshal(n, 2048)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("encoding %v changed its page image at %s", n.ID, diffOffsets(got, want))
		}
	}
}

func TestEncodeKeepsPreImageViews(t *testing.T) {
	c := Codec{Dims: 2}
	n := randNode(rand.New(rand.NewSource(8)), 0, 0, 4)
	buf, err := c.Marshal(n, 1024)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := c.Decode(buf, n.ID)
	if err != nil {
		t.Fatal(err)
	}
	pre := c.Headers(m)
	view := pre.Records[1].Rect
	before := view.Clone()

	// The writer's copy-on-write: clone, replace a header, append, encode.
	w := pre.CloneHeaders()
	w.Records[1].Rect = geom.Rect2(-5, -5, -1, -1)
	w.Records = append(w.Records, Record{Rect: geom.Rect2(1, 1, 2, 2), ID: 77})
	wm := c.Encode(&w)
	if !viewsImage(&w, wm, 2) {
		t.Fatal("Encode left the clone's rectangles off its image")
	}
	if sharesFloats(w.Records[0].Rect, pre.Records[0].Rect) {
		t.Fatal("Encode left an entry viewing the pre-image's floats")
	}
	if !view.Equal(before) || !pre.Records[1].Rect.Equal(before) {
		t.Fatalf("pre-image view reads %v after Encode, want %v", view, before)
	}
	again, err := c.Page(m, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, buf) {
		t.Fatalf("the pre-image's image changed at %s", diffOffsets(again, buf))
	}
}
