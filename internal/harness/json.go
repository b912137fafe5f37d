package harness

import (
	"encoding/json"
	"fmt"
	"strings"
)

// The BENCH JSON format: machine-readable result lines, one JSON object
// per line, each prefixed with "BENCH " so they can be grepped out of
// mixed human-readable output. segbench emits them under -json.

// poolJSON is the wire form of buffer pool counters.
type poolJSON struct {
	Gets      uint64  `json:"gets"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	Writes    uint64  `json:"writes"`
	HitRate   float64 `json:"hit_rate"`
}

type curvePointJSON struct {
	QAR            float64 `json:"qar"`
	NodesPerSearch float64 `json:"nodes_per_search"`
}

type graphJSON struct {
	Experiment      string           `json:"experiment"`
	Name            string           `json:"name"`
	Kind            string           `json:"kind"`
	Tuples          int              `json:"tuples"`
	Seed            uint64           `json:"seed"`
	Height          int              `json:"height"`
	Nodes           int              `json:"nodes"`
	SpanningRecords int              `json:"spanning_records"`
	BuildMS         float64          `json:"build_ms"`
	Pool            poolJSON         `json:"pool"`
	Curve           []curvePointJSON `json:"curve"`
}

// BenchJSON renders the result as BENCH JSON: one line per index type,
// carrying the build statistics, the accumulated buffer pool counters,
// and the full QAR curve.
func (r *Result) BenchJSON() string {
	var b strings.Builder
	for i, c := range r.Curves {
		g := graphJSON{
			Experiment: "graph",
			Name:       r.Spec.Name,
			Kind:       c.Kind.String(),
			Tuples:     r.Spec.Tuples,
			Seed:       r.Spec.Seed,
		}
		if i < len(r.Builds) {
			bi := r.Builds[i]
			g.Height = bi.Height
			g.Nodes = bi.Nodes
			g.SpanningRecords = bi.SpanningRecords
			g.BuildMS = float64(bi.BuildTime.Microseconds()) / 1000
			g.Pool = poolJSON{
				Gets:      bi.Pool.Gets,
				Hits:      bi.Pool.Hits,
				Misses:    bi.Pool.Misses,
				Evictions: bi.Pool.Evictions,
				Writes:    bi.Pool.Writes,
				HitRate:   bi.Pool.HitRate(),
			}
		}
		for _, p := range c.Points {
			g.Curve = append(g.Curve, curvePointJSON{QAR: p.QAR, NodesPerSearch: p.AvgNodes})
		}
		buf, err := json.Marshal(g)
		if err != nil {
			// A marshal failure here is a programming error (the struct
			// is plain data); surface it in the output stream.
			fmt.Fprintf(&b, "BENCH {\"error\":%q}\n", err.Error())
			continue
		}
		b.WriteString("BENCH ")
		b.Write(buf)
		b.WriteByte('\n')
	}
	return b.String()
}
