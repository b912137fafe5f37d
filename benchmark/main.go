// Command benchmark is the repository's one benchmark: four workloads
// that stress different layers of the index service, seven end-to-end
// metrics measured with tracing off, and a traced run that attributes
// cost to each layer from outside the engine. BENCHMARK.json at the
// repository root names it; README.md in this directory explains every
// workload and metric.
//
//	go run ./benchmark --workload mem_query --seed 1991 --seconds 25 --trace 0
//	go run ./benchmark -workload all                # all four, one after the other
//	go run ./benchmark -compare a.jsonl b.jsonl     # judge two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// workloads lists the four workloads in the order -workload all runs them.
var workloads = []string{"mem_query", "cold_query", "temporal_rw", "http_serve"}

// tuples is the dataset size of every published number. It is not a
// flag: results at another scale could not be told from these.
const tuples = 100000

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1) //seglint:allow nodepanic — a command's exit status is its interface; run() returns errors everywhere else
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "all", "mem_query, cold_query, temporal_rw, http_serve, or all")
		seed    = fs.Uint64("seed", 1991, "workload seed; equal seeds give equal inputs")
		seconds = fs.Float64("seconds", 25, "length of each timed phase")
		trace   = fs.Int("trace", 0, "1 runs the traced single-client phase and prints the per-layer metrics instead")
		dir     = fs.String("dir", filepath.Join("benchmark", "out"), "directory for page files, WALs, traces and results.jsonl")
		compare = fs.Bool("compare", false, "compare two results files: -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two results files")
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), out)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	names := []string{*name}
	if *name == "all" {
		names = workloads
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	for _, n := range names {
		cfg := config{
			workload: n, seed: *seed, trace: *trace == 1, tuples: tuples, dir: *dir,
			seconds: time.Duration(*seconds * float64(time.Second)),
		}
		if _, err := runOne(cfg, out); err != nil {
			return err
		}
	}
	return nil
}

// runOne runs one workload, prints its result as the last line and
// appends it, with the run's parameters, to <dir>/results.jsonl. A run in
// which any operation failed is an error, after its result is out.
func runOne(cfg config, out io.Writer) (result, error) {
	res, err := runWorkload(cfg, out)
	if err != nil {
		return res, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(out, "%s\n", line)
	rec := res
	rec.Workload, rec.Seed, rec.Seconds, rec.Tuples = cfg.workload, cfg.seed, cfg.seconds.Seconds(), cfg.tuples
	if cfg.trace {
		rec.Trace = 1
	}
	if err := appendResult(filepath.Join(cfg.dir, "results.jsonl"), rec); err != nil {
		return res, err
	}
	if res.Failed > 0 {
		return res, fmt.Errorf("%s: %d of %d operations failed", cfg.workload, res.Failed, res.Attempted)
	}
	return res, nil
}

func newBench(cfg config, r *report, tr *tracer) (bench, error) {
	switch cfg.workload {
	case "mem_query":
		return newQueryBench(cfg, r, tr, false), nil
	case "cold_query":
		return newQueryBench(cfg, r, tr, true), nil
	case "temporal_rw":
		return newTemporalBench(cfg, r, tr), nil
	case "http_serve":
		return newHTTPBench(cfg, r, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// runWorkload runs one workload: set-up (timed as setup_s), then the
// timed phase with tracing off and the end-to-end metrics, or the traced
// fixed-count phase and the per-layer metrics. Both end with the
// workload's own correctness checks.
func runWorkload(cfg config, out io.Writer) (res result, err error) {
	r := newReport(out)
	var tr *tracer
	defs := endToEnd
	if cfg.trace {
		tr, defs = newTracer(), perLayer
	}
	r.logf("== %s seed=%d tuples=%d seconds=%g trace=%v", cfg.workload, cfg.seed, cfg.tuples, cfg.seconds.Seconds(), cfg.trace)

	b, err := newBench(cfg, r, tr)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := b.close(); err == nil {
			err = cerr
		}
	}()
	t0 := time.Now()
	if err = b.setup(); err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}
	r.set("setup_s", time.Since(t0).Seconds(), "data generation, build, warm-up")

	if cfg.trace {
		err = b.traced()
	} else {
		err = b.measure()
	}
	if err != nil {
		return res, err
	}
	if err = b.finish(); err != nil {
		return res, err
	}
	return r.finish(defs, !cfg.trace)
}
