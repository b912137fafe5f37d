package core

import (
	"fmt"
	"math"
	"strings"

	"segidx/internal/page"
)

// LevelReport summarizes one level of the index.
type LevelReport struct {
	Level      int
	Nodes      int
	Branches   int     // total branch entries
	Records    int     // data records (leaves) or spanning records (non-leaf)
	Area       float64 // total area of node cover rectangles
	Overlap    float64 // total pairwise overlap area between sibling covers
	MeanAspect float64 // geometric mean horizontal/vertical aspect ratio
	Occupancy  float64 // mean fill fraction (entries / capacity)
}

// Report summarizes the structural quality of the index: the quantities the
// paper's discussion revolves around (node overlap, region aspect ratios,
// spanning record placement).
type Report struct {
	Height          int
	Nodes           int
	LogicalRecords  int
	StoredPortions  int
	SpanningRecords int
	Levels          []LevelReport
}

// Analyze walks the index and computes a structural report.
func (t *Tree) Analyze() (*Report, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	rep := &Report{Height: t.height, LogicalRecords: t.size}
	byLevel := make(map[int]*LevelReport)
	aspectLogSum := make(map[int]float64)
	aspectCount := make(map[int]int)

	var walk func(id page.ID) error
	walk = func(id page.ID) error {
		n, err := t.fetch(id, nil)
		if err != nil {
			return err
		}
		lr, ok := byLevel[n.Level]
		if !ok {
			lr = &LevelReport{Level: n.Level}
			byLevel[n.Level] = lr
		}
		lr.Nodes++
		rep.Nodes++
		lr.Branches += len(n.Branches)
		lr.Records += len(n.Records)
		rep.StoredPortions += len(n.Records)
		if !n.IsLeaf() {
			rep.SpanningRecords += len(n.Records)
		}
		cover := n.Cover(t.cfg.Dims)
		if !cover.IsEmptyMarker() {
			lr.Area += cover.Area()
			if t.cfg.Dims >= 2 {
				ar := cover.AspectRatio()
				if ar > 0 && !math.IsInf(ar, 0) {
					aspectLogSum[n.Level] += math.Log(ar)
					aspectCount[n.Level]++
				}
			}
		}
		// Pairwise overlap between the covers of this node's children.
		for i := 0; i < len(n.Branches); i++ {
			for j := i + 1; j < len(n.Branches); j++ {
				childLevel := n.Level - 1
				clr, ok := byLevel[childLevel]
				if !ok {
					clr = &LevelReport{Level: childLevel}
					byLevel[childLevel] = clr
				}
				clr.Overlap += n.Branches[i].Rect.OverlapArea(n.Branches[j].Rect)
			}
		}
		var capTotal int
		if n.IsLeaf() {
			capTotal = t.leafCap()
		} else {
			capTotal = t.branchCap(n.Level)
		}
		if capTotal > 0 {
			entries := len(n.Branches)
			if n.IsLeaf() {
				entries = len(n.Records)
			}
			lr.Occupancy += float64(entries) / float64(capTotal)
		}
		for _, b := range n.Branches {
			if err := walk(b.Child); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root); err != nil {
		return nil, err
	}
	for level := 0; level < t.height; level++ {
		lr, ok := byLevel[level]
		if !ok {
			continue
		}
		if lr.Nodes > 0 {
			lr.Occupancy /= float64(lr.Nodes)
		}
		if c := aspectCount[level]; c > 0 {
			lr.MeanAspect = math.Exp(aspectLogSum[level] / float64(c))
		}
		rep.Levels = append(rep.Levels, *lr)
	}
	return rep, nil
}

// String renders the report as an aligned table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "height=%d nodes=%d logical=%d portions=%d spanning=%d\n",
		r.Height, r.Nodes, r.LogicalRecords, r.StoredPortions, r.SpanningRecords)
	fmt.Fprintf(&b, "%-6s %8s %9s %9s %14s %14s %8s %6s\n",
		"level", "nodes", "branches", "records", "area", "overlap", "aspect", "fill")
	for i := len(r.Levels) - 1; i >= 0; i-- {
		l := r.Levels[i]
		fmt.Fprintf(&b, "%-6d %8d %9d %9d %14.4g %14.4g %8.3g %6.2f\n",
			l.Level, l.Nodes, l.Branches, l.Records, l.Area, l.Overlap, l.MeanAspect, l.Occupancy)
	}
	return b.String()
}
