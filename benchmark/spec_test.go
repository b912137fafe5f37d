package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// specPath is BENCHMARK.json as seen from this package's directory.
const specPath = "../BENCHMARK.json"

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, defs []metricDef, ms []specMetric) {
		if len(defs) != len(ms) {
			t.Fatalf("%s: %d metrics in the program, %d in BENCHMARK.json", kind, len(defs), len(ms))
		}
		for i, d := range defs {
			if d.name != ms[i].Name || d.unit != ms[i].Unit {
				t.Errorf("%s #%d: program has %s [%s], BENCHMARK.json has %s [%s]", kind, i, d.name, d.unit, ms[i].Name, ms[i].Unit)
			}
			if ms[i].Better != "lower" && ms[i].Better != "higher" {
				t.Errorf("%s: better = %q", ms[i].Name, ms[i].Better)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > spec.EndToEnd[0].Bound {
			t.Errorf("%s: bound %v outside (0, %v], the bound of setup_s, which must be the largest", m.Name, m.Bound, spec.EndToEnd[0].Bound)
		}
	}
	if m := spec.EndToEnd[0]; m.Name != "setup_s" || m.Bound > 0.25 {
		t.Errorf("the first end-to-end metric must be setup_s with a bound of at most 0.25, not %s with %v", m.Name, m.Bound)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload #%d: %s vs %s", i, w.Name, workloads[i])
		}
	}
}

// TestSmoke runs every workload end to end at 2 000 tuples with short
// phases, untraced and (unless -short) traced, and checks the contract of
// the last output line: exactly the metrics BENCHMARK.json names, each
// finite, end-to-end ones never zero, no failed operation.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	modes := [][]metricDef{endToEnd, perLayer}
	if testing.Short() {
		modes = modes[:1]
	}
	for _, w := range workloads {
		for trace, defs := range modes {
			var buf bytes.Buffer
			cfg := config{workload: w, seed: 3, seconds: 300 * time.Millisecond, trace: trace == 1, tuples: 2000, dir: dir}
			if _, err := runOne(cfg, &buf); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w, trace, err, buf.String())
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var fields map[string]json.RawMessage
			var res result
			last := []byte(lines[len(lines)-1])
			if err := json.Unmarshal(last, &fields); err != nil || len(fields) != 4 {
				t.Fatalf("%s trace=%d: last line must be the result with exactly four keys: %v\n%s", w, trace, err, last)
			}
			if err := json.Unmarshal(last, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", w, trace, res.Correct, res.Attempted, res.Failed, buf.String())
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%d: %s missing", w, trace, d.name)
				case mv.Unit != d.unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
					t.Errorf("%s trace=%d: %s = %v %s", w, trace, d.name, mv.Value, mv.Unit)
				case trace == 0 && mv.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w, d.name, mv.Value)
				}
				if n := strings.Count(buf.String(), "\n"+d.name+" "); n > 1 || (trace == 0 && n != 1) {
					t.Errorf("%s trace=%d: %s printed %d times in the table", w, trace, d.name, n)
				}
			}
		}
	}
	// A results file compared with itself has no regression and no spread.
	out := filepath.Join(dir, "results.jsonl")
	var buf bytes.Buffer
	if err := compareFiles(specPath, out, out, &buf); err != nil {
		t.Errorf("self-comparison: %v\n%s", err, buf.String())
	}
	if rows := strings.Count(buf.String(), " ok\n"); rows != len(workloads)*len(endToEnd) {
		t.Errorf("self-comparison printed %d ok rows, want %d\n%s", rows, len(workloads)*len(endToEnd), buf.String())
	}
}

// TestCompareRefuses covers the inputs -compare must not judge: runs of
// one workload at different lengths or scales, a failed run, and two files
// with nothing in common.
func TestCompareRefuses(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs ...result) string {
		path := filepath.Join(dir, name)
		for _, r := range recs {
			r.Metrics = map[string]metricValue{"ops_s": {Value: 100, Unit: "ops/s"}}
			if err := appendResult(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	ok := result{Workload: "mem_query", Seconds: 25, Tuples: 100000, Correct: true, Attempted: 10}
	short, small, other, failed := ok, ok, ok, ok
	short.Seconds, small.Tuples, other.Workload = 1, 2000, "cold_query"
	failed.Correct, failed.Failed = false, 1
	full := write("full", ok, ok)
	for _, c := range []struct {
		name, a, b, want string
	}{
		{"same", full, full, ""},
		{"mixed lengths in one file", write("mixed", ok, short), full, "among runs"},
		{"different scale across files", full, write("small", small), "over 2000"},
		{"failed run", full, write("failed", failed), "failed 1 of 10"},
		{"nothing in common", full, write("other", other), "in common"},
	} {
		err := compareFiles(specPath, c.a, c.b, io.Discard)
		if (c.want == "") != (err == nil) || (err != nil && !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "p50", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 140, 70, 100, 130, 60, 100, 150, 80, 100}
	shift := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"latency up 20%", lower, steady, shift(steady, 1.2), "worse"},
		{"latency down 20%", lower, steady, shift(steady, 0.8), "ok"},
		{"throughput down 20%", higher, steady, shift(steady, 0.8), "worse"},
		{"throughput up 20%", higher, steady, shift(steady, 1.2), "ok"},
		{"within bound", lower, steady, shift(steady, 1.05), "ok"},
		{"noise hides it", lower, noisy, shift(noisy, 1.05), "unresolved"},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
