// Command segbench regenerates the paper's performance experiments
// (Kolovson & Stonebraker, SIGMOD 1991): Graphs 1-6, the 100K-tuple
// variants, the exponential-centroid rectangle runs the paper omitted
// (graphs 7-8 here), and ablations over the design parameters. Systems
// numbers (latency, throughput, durability, serving) come from
// `go run ./benchmark`, not from here.
//
// Examples:
//
//	segbench -graph 3                 # Graph 3 at the paper's 200K tuples
//	segbench -all -tuples 100000      # all graphs at 100K
//	segbench -graph 6 -chart          # include an ASCII rendering
//	segbench -graph 3 -json           # machine-readable BENCH JSON lines
//	segbench -ablation reserve        # branch-reserve sweep (A1)
//	segbench -verify                  # graphs 1-6 + the paper's prose claims
//	segbench -graph 3 -profile g3     # also write g3.cpu.pprof, g3.heap.pprof
//	segbench -list                    # what can be run
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"segidx/internal/harness"
	"segidx/internal/workload"
)

// config holds the parsed command line.
type config struct {
	graphs, ablation, kinds, profile                  string
	all, verify, csv, json, chart, check, list, quiet bool
	tuples, queries                                   int
	seed                                              uint64
}

// newFlagSet registers every segbench flag. It is the one place flags are
// declared: -list prints from it, and main_test.go checks README against it.
func newFlagSet() (*flag.FlagSet, *config) {
	c := new(config)
	fs := flag.NewFlagSet("segbench", flag.ContinueOnError)
	fs.StringVar(&c.graphs, "graph", "", "comma-separated graph numbers to run (1-8)")
	fs.BoolVar(&c.all, "all", false, "run every graph (1-8)")
	fs.BoolVar(&c.verify, "verify", false, "run graphs 1-6 and check the paper's qualitative claims")
	fs.StringVar(&c.ablation, "ablation", "", "run an ablation: reserve | nodesize | predict | coalesce | leafpromo | packing")
	fs.IntVar(&c.tuples, "tuples", 200000, "dataset size (the paper plots 200K; 100K reported as similar)")
	fs.IntVar(&c.queries, "queries", workload.QueriesPerQAR, "searches per QAR")
	fs.Uint64Var(&c.seed, "seed", 1991, "workload seed")
	fs.StringVar(&c.kinds, "kinds", "", "restrict index types: comma-separated of r,sr,skr,sksr")
	fs.BoolVar(&c.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.BoolVar(&c.json, "json", false, "emit BENCH JSON lines instead of tables")
	fs.BoolVar(&c.chart, "chart", false, "also render ASCII charts")
	fs.BoolVar(&c.check, "check", false, "validate index invariants after each build (slow)")
	fs.BoolVar(&c.list, "list", false, "list runnable experiments and exit")
	fs.BoolVar(&c.quiet, "quiet", false, "suppress progress output")
	fs.StringVar(&c.profile, "profile", "", "write PREFIX.cpu.pprof and PREFIX.heap.pprof covering the run")
	return fs, c
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one segbench invocation and returns its exit status: 0 on
// success, 1 on a failed run or failed claim, 2 on a usage error. Results
// go to stdout; usage, errors and progress go to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs, c := newFlagSet()
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if c.list {
		printList(stdout, fs)
		return 0
	}
	if !c.all && !c.verify && c.graphs == "" && c.ablation == "" {
		fs.Usage()
		return 2
	}

	if c.profile != "" {
		stop, err := startProfiles(c.profile)
		if err != nil {
			fmt.Fprintln(stderr, "segbench:", err)
			return 1
		}
		defer stop()
	}
	var progress io.Writer
	if !c.quiet {
		progress = stderr
	}
	if err := c.experiments(stdout, progress); err != nil {
		fmt.Fprintln(stderr, "segbench:", err)
		return 1
	}
	return 0
}

// experiments runs what the flags select: an ablation, the claim
// verification, or a list of graphs, and writes the results to out.
func (c *config) experiments(out, progress io.Writer) error {
	if c.ablation != "" {
		return runAblation(out, c.ablation, c.tuples, c.queries, c.seed, c.csv, c.check, progress)
	}

	// graph runs paper graph g with the command line's overrides applied.
	graph := func(g int, kinds []harness.Kind) (*harness.Result, error) {
		spec, err := harness.GraphSpec(g, c.tuples)
		if err != nil {
			return nil, err
		}
		spec.QueriesPerQAR = c.queries
		spec.Seed = c.seed
		spec.CheckInvariants = c.check
		if len(kinds) > 0 {
			spec.Kinds = kinds
		}
		return harness.Run(spec, progress)
	}

	if c.verify {
		results := make(map[int]*harness.Result)
		for g := 1; g <= 6; g++ {
			res, err := graph(g, nil) // the claims compare all four index types
			if err != nil {
				return err
			}
			results[g] = res
		}
		report, failures := harness.VerifyClaims(results)
		fmt.Fprint(out, report)
		if failures > 0 {
			return fmt.Errorf("%d claim(s) failed", failures)
		}
		fmt.Fprintln(out, "\nall claims hold")
		return nil
	}

	kinds, err := parseKinds(c.kinds)
	if err != nil {
		return err
	}
	var nums []int
	if c.all {
		nums = []int{1, 2, 3, 4, 5, 6, 7, 8}
	} else {
		for _, part := range strings.Split(c.graphs, ",") {
			g, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -graph value %q", part)
			}
			nums = append(nums, g)
		}
	}
	for _, g := range nums {
		res, err := graph(g, kinds)
		if err != nil {
			return err
		}
		emit(out, res, c.csv, c.json, c.chart)
	}
	return nil
}

func emit(w io.Writer, res *harness.Result, csv, jsonOut, chart bool) {
	switch {
	case jsonOut:
		fmt.Fprint(w, res.BenchJSON())
	case csv:
		fmt.Fprintf(w, "# %s\n%s\n", res.Spec.Name, res.CSV())
	default:
		fmt.Fprintln(w, res.Table())
		fmt.Fprintln(w, res.BuildSummary())
	}
	if chart {
		fmt.Fprintln(w, res.Chart())
	}
}

func parseKinds(s string) ([]harness.Kind, error) {
	if s == "" {
		return nil, nil
	}
	var out []harness.Kind
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "r":
			out = append(out, harness.KindRTree)
		case "sr":
			out = append(out, harness.KindSRTree)
		case "skr":
			out = append(out, harness.KindSkeletonRTree)
		case "sksr":
			out = append(out, harness.KindSkeletonSRTree)
		default:
			return nil, fmt.Errorf("unknown kind %q (want r, sr, skr, sksr)", part)
		}
	}
	return out, nil
}

// printList writes the catalogue of experiments and every flag in fs.
func printList(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprintln(w, "graphs (run with -graph N, or -all):")
	for g := 1; g <= 8; g++ {
		spec, _ := harness.GraphSpec(g, 200000)
		fmt.Fprintf(w, "  %d  %s\n", g, spec.Name)
	}
	fmt.Fprintln(w, "\nablations (run with -ablation NAME):")
	fmt.Fprintln(w, "  reserve    A1: SR branch reserve 1/2, 2/3 (paper), 3/4 on I3")
	fmt.Fprintln(w, "  nodesize   A2: node size doubling vs fixed 1 KiB on I3")
	fmt.Fprintln(w, "  predict    A3: prediction sample 1%, 5%, 10%, and exact histograms on I2")
	fmt.Fprintln(w, "  coalesce   A4: coalescing on vs off on I2")
	fmt.Fprintln(w, "  leafpromo  A5: leaf promotion on vs off on I3")
	fmt.Fprintln(w, "  packing    A6: static packed R-Tree vs dynamic indexes on I1 and I3")
	fmt.Fprintln(w, "\nflags:")
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(w, "  -%-9s %s\n", f.Name, f.Usage)
	})
}

// startProfiles begins CPU profiling and returns a stop function that
// finishes the CPU profile and writes a heap profile, to PREFIX.cpu.pprof
// and PREFIX.heap.pprof.
func startProfiles(prefix string) (func(), error) {
	cpuPath := prefix + ".cpu.pprof"
	heapPath := prefix + ".heap.pprof"
	cpuF, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpuF); err != nil {
		cpuF.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		cpuF.Close()
		heapF, err := os.Create(heapPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "segbench: heap profile:", err)
			return
		}
		runtime.GC() // get up-to-date live-object statistics
		if err := pprof.WriteHeapProfile(heapF); err != nil {
			fmt.Fprintln(os.Stderr, "segbench: heap profile:", err)
		}
		heapF.Close()
		fmt.Fprintf(os.Stderr, "segbench: wrote %s and %s\n", cpuPath, heapPath)
	}, nil
}
