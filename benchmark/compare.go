package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var s benchmarkSpec
	buf, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(buf, &s)
}

// runs is what a results file holds for one workload: the parameters
// its runs share and every untraced run's value of each metric.
type runs struct {
	seconds float64
	tuples  int
	values  map[string][]float64
}

// readResults reads a results file (one JSON result per line, as every
// run appends to <dir>/results.jsonl) and groups the untraced runs by
// workload. Runs of one workload with different -seconds or dataset sizes
// measure different things and are refused, as is a failed run.
func readResults(path string) (map[string]*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]*runs)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if res.Trace != 0 {
			continue
		}
		if res.Failed > 0 || !res.Correct {
			return nil, fmt.Errorf("%s:%d: run of %s failed %d of %d operations; its timings prove nothing",
				path, line, res.Workload, res.Failed, res.Attempted)
		}
		w := out[res.Workload]
		if w == nil {
			w = &runs{seconds: res.Seconds, tuples: res.Tuples, values: make(map[string][]float64)}
			out[res.Workload] = w
		}
		if res.Seconds != w.seconds || res.Tuples != w.tuples {
			return nil, fmt.Errorf("%s:%d: run of %s with %g s phases over %d tuples among runs with %g s over %d",
				path, line, res.Workload, res.Seconds, res.Tuples, w.seconds, w.tuples)
		}
		for name, mv := range res.Metrics {
			w.values[name] = append(w.values[name], mv.Value)
		}
	}
	return out, sc.Err()
}

// spread is the interquartile range as a share of the median (0 for
// fewer than two values, where no spread can be seen).
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / math.Abs(median(vs))
}

// verdict judges one (workload, metric) pair: "worse" when b's median is
// worse than a's by more than the bound, otherwise "unresolved" when
// either side's own spread exceeds the bound (the runs cannot tell a
// change of that size from noise), otherwise "ok".
func verdict(m specMetric, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	change := (mb - ma) / math.Abs(ma) // positive = b larger
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return "worse", change
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return "unresolved", change
	}
	return "ok", change
}

// compareFiles prints one row per (workload, end-to-end metric) present
// in both results files and returns an error if any row is worse, if the
// two sides ran a workload with different parameters, or if they have no
// row in common.
func compareFiles(specPath, pathA, pathB string, out io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	var names []string
	for w, ra := range a {
		rb := b[w]
		if rb == nil {
			continue
		}
		if ra.seconds != rb.seconds || ra.tuples != rb.tuples {
			return fmt.Errorf("%s: %s ran %g s phases over %d tuples, %s %g s over %d", w, pathA, ra.seconds, ra.tuples, pathB, rb.seconds, rb.tuples)
		}
		names = append(names, w)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%-12s %-14s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "a median", "b median", "worse by", "a spread", "b spread", "bound", "verdict")
	rows, worse := 0, 0
	for _, w := range names {
		for _, m := range spec.EndToEnd {
			va, vb := a[w].values[m.Name], b[w].values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, change := verdict(m, va, vb)
			rows++
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(out, "%-12s %-14s %14.4f %14.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w, m.Name, median(va), median(vb), 100*change, 100*spread(va), 100*spread(vb), 100*m.Bound, v)
		}
	}
	switch {
	case rows == 0:
		return fmt.Errorf("%s and %s have no workload and metric in common", pathA, pathB)
	case worse > 0:
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}
