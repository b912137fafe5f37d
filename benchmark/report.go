package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
)

// metricDef names one metric and its unit. The two tables below are the
// benchmark's side of BENCHMARK.json; spec_test.go keeps them identical.
type metricDef struct{ name, unit string }

// endToEnd is measured with tracing off and printed by every workload.
// What each name means per workload is tabulated in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_s", "ops/s"},
	{"stab_p50_us", "us"},
	{"range_p50_us", "us"},
	{"read_p99_us", "us"},
	{"heap_mb", "MiB"},
	{"space_amp", "ratio"},
}

// perLayer comes from the traced run. A layer the workload does not
// exercise reports 0 for its counts and times: it did no work.
var perLayer = []metricDef{
	{"workload.gen_ms", "ms"},
	{"skeleton.build_ms", "ms"},
	{"skeleton.coalesces_per_1k_writes", "count"},
	{"core.nodes_per_range", "count"},
	{"core.nodes_per_stab", "count"},
	{"core.nodes_per_range.r-tree", "count"},
	{"core.nodes_per_range.sr-tree", "count"},
	{"core.nodes_per_range.skeleton-r-tree", "count"},
	{"core.nodes_per_range.skeleton-sr-tree", "count"},
	{"core.self_us_per_range", "us"},
	{"core.self_us_per_stab", "us"},
	{"core.load_inserts_s", "ops/s"},
	{"core.nodes_per_insert", "count"},
	{"core.write_p50_us", "us"},
	{"core.splits_per_1k_writes", "count"},
	{"core.cuts_per_1k_writes", "count"},
	{"core.reinserts_per_1k_writes", "count"},
	{"core.spanning_share", "ratio"},
	{"buffer.hit_rate", "ratio"},
	{"buffer.misses_per_query", "count"},
	{"buffer.evictions_per_query", "count"},
	{"buffer.clones_per_write", "count"},
	{"buffer.retained_peak", "count"},
	{"buffer.retained_bytes_peak", "bytes"},
	{"node.decode_us_per_page", "us"},
	{"node.encode_us_per_page", "us"},
	{"node.bytes_per_page_mean", "bytes"},
	{"store.reads_per_query", "count"},
	{"store.read_us_per_query", "us"},
	{"store.page_writes_per_write", "count"},
	{"store.bytes_written_per_user_byte", "ratio"},
	{"store.wal_bytes_per_commit", "bytes"},
	{"store.fsyncs_per_commit", "count"},
	{"store.fsync_p50_us", "us"},
	{"store.commit_p50_us", "us"},
	{"store.commit_self_p50_us", "us"},
	{"store.reopen_ms", "ms"},
	{"accel.routed_share", "ratio"},
	{"accel.probe_share", "ratio"},
	{"accel.degraded", "count"},
	{"accel.live_slots", "count"},
	{"accel.stab_sidecar_p50_us", "us"},
	{"accel.stab_tree_p50_us", "us"},
	{"accel.stab_tree_p99_us", "us"},
	{"forest.shards_touched_per_query", "count"},
	{"forest.shard_skew", "ratio"},
	{"forest.facade_p50_us", "us"},
	{"server.handler_hit_p50_us", "us"},
	{"server.handler_miss_p50_us", "us"},
	{"server.codec_p50_us", "us"},
	{"server.net_p50_us", "us"},
	{"server.loopback_p50_us", "us"},
	{"server.open_loop_p50_us", "us"},
	{"server.open_loop_p99_us", "us"},
	{"server.cache_hit_rate", "ratio"},
	{"server.cache_invalidations_per_s", "1/s"},
	{"server.resp_bytes_per_req", "bytes"},
	{"server.allocs_per_req", "count"},
	{"ref.flatscan_p50_us", "us"},
	{"rt.allocs_per_query", "count"},
	{"rt.gc_cycles", "count"},
	{"rt.gc_pause_ms_total", "ms"},
	{"gen.late_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// report gathers one run's metrics and its correctness tally.
type report struct {
	w       io.Writer // human-readable progress and the metric table
	values  map[string]float64
	notes   map[string]string
	attempt atomic.Int64 // operations issued
	failed  atomic.Int64 // errors, refusals, wrong answers, failed end checks
}

func newReport(w io.Writer) *report {
	return &report{w: w, values: make(map[string]float64), notes: make(map[string]string)}
}

// set records a metric; note carries what a reader needs beside the value
// (the sample count of a timing, the base of a ratio).
func (r *report) set(name string, v float64, note string) {
	r.values[name] = v
	r.notes[name] = note
}

// setLatency records the q-quantile of h, over the whole phase, in
// microseconds with its sample count. A percentile is reported only with
// ten samples beyond it: a thinner sample reports the highest percentile
// it does support, and says so.
func (r *report) setLatency(name string, h *hist, q float64) {
	note := fmt.Sprintf("n=%d", h.n)
	if !supported(h.n, q) {
		q = tailQuantile(h.n)
		note += fmt.Sprintf("; p%g, the highest percentile with ten samples beyond it", 100*q)
	}
	r.set(name, h.quantile(q)/1e3, note)
}

// fail counts one failed operation and says why.
func (r *report) fail(format string, args ...any) {
	if r.failed.Add(1) <= 5 { // the first few are enough to diagnose
		fmt.Fprintf(r.w, "FAIL: "+format+"\n", args...)
	}
}

func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// result is the last-line JSON document and, with the run's parameters
// filled in, the record appended to the results file.
type result struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      uint64                 `json:"seed,omitempty"`
	Trace     int                    `json:"trace,omitempty"`
	Seconds   float64                `json:"seconds,omitempty"`
	Tuples    int                    `json:"tuples,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints every recorded metric by name with its unit and returns
// the result holding exactly the metrics in defs. An end-to-end metric
// that was never set is a bug in the workload; a per-layer metric that
// was never set belongs to a layer the workload does not use and reads 0.
func (r *report) finish(defs []metricDef, requireAll bool) (result, error) {
	res := result{Metrics: make(map[string]metricValue, len(defs))}
	fmt.Fprintf(r.w, "%-40s %16s %-6s %s\n", "metric", "value", "unit", "note")
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && requireAll {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if ok {
			fmt.Fprintf(r.w, "%-40s %16.4f %-6s %s\n", d.name, v, d.unit, r.notes[d.name])
		}
	}
	res.Attempted = r.attempt.Load()
	res.Failed = r.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(r.w, "attempted %d, failed %d, fail_frac %g\n",
		res.Attempted, res.Failed, float64(res.Failed)/math.Max(1, float64(res.Attempted)))
	return res, nil
}

// appendResult appends res as one JSON line to path, creating the
// directory if needed. The file is the input of -compare.
func appendResult(path string, res result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
