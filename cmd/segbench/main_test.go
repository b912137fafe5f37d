package main

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"segidx/internal/harness"
	"segidx/internal/workload"
)

func TestParseKinds(t *testing.T) {
	got, err := parseKinds("r,sr,skr,sksr")
	if err != nil {
		t.Fatal(err)
	}
	want := []harness.Kind{harness.KindRTree, harness.KindSRTree, harness.KindSkeletonRTree, harness.KindSkeletonSRTree}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if k, err := parseKinds(""); err != nil || k != nil {
		t.Errorf("empty = %v, %v", k, err)
	}
	if _, err := parseKinds("bogus"); err == nil {
		t.Error("bogus kind accepted")
	}
	if k, err := parseKinds(" r , sksr "); err != nil || len(k) != 2 {
		t.Errorf("whitespace handling: %v, %v", k, err)
	}
}

func TestRunAblationUnknown(t *testing.T) {
	if err := runAblation("nope", 100, 5, 1, false, false, nil); err == nil {
		t.Error("unknown ablation accepted")
	}
}

func TestRunAblationTiny(t *testing.T) {
	// A minimal end-to-end ablation run exercising the variant plumbing.
	var progress bytes.Buffer
	if err := runAblation("leafpromo", 800, 3, 1, true, false, &progress); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(progress.String(), "SR-Tree") {
		t.Errorf("no progress emitted: %q", progress.String())
	}
}

func TestEmitFormats(t *testing.T) {
	spec := harness.NewSpec("emit test", workload.I1, 500)
	spec.QARs = []float64{0.1, 1, 10}
	spec.QueriesPerQAR = 3
	spec.Kinds = []harness.Kind{harness.KindRTree}
	res, err := harness.Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	// emit writes to stdout; just verify the renderers do not panic and
	// contain the expected structure.
	if !strings.Contains(res.Table(), "emit test") {
		t.Error("table missing title")
	}
	if !strings.HasPrefix(res.CSV(), "qar,") {
		t.Error("csv missing header")
	}
}

var flagToken = regexp.MustCompile(`(?:^|\s)-([a-z]+)\b`)

// flagTokens returns the distinct -name tokens in text, sorted.
func flagTokens(text string) []string {
	seen := make(map[string]bool)
	for _, m := range flagToken.FindAllStringSubmatch(text, -1) {
		seen[m[1]] = true
	}
	var out []string
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// The flag set, -list and README's "Reproducing the paper" block must name
// exactly the same flags.
func TestFlagsListAndReadmeAgree(t *testing.T) {
	fs, _ := newFlagSet()
	var registered []string
	fs.VisitAll(func(f *flag.Flag) { registered = append(registered, f.Name) })
	want := strings.Join(registered, " ") // VisitAll is sorted by name

	var list bytes.Buffer
	printList(&list, fs)
	if got := strings.Join(flagTokens(list.String()), " "); got != want {
		t.Errorf("-list names flags\n  %s\nregistered are\n  %s", got, want)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "## Reproducing the paper")
	if ok {
		_, block, ok = strings.Cut(block, "```sh\n")
	}
	block, _, closed := strings.Cut(block, "```")
	if !ok || !closed {
		t.Fatal("README.md has no sh block under \"Reproducing the paper\"")
	}
	var segbench []string
	for _, line := range strings.Split(block, "\n") {
		if cmd, _, _ := strings.Cut(line, "#"); strings.Contains(cmd, "cmd/segbench") {
			segbench = append(segbench, cmd)
		}
	}
	if got := strings.Join(flagTokens(strings.Join(segbench, "\n")), " "); got != want {
		t.Errorf("README names flags\n  %s\nregistered are\n  %s", got, want)
	}
}

func TestNoModeIsUsageError(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-tuples", "100", "-quiet"}, &stderr); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "Usage of segbench") {
		t.Errorf("no usage printed: %q", stderr.String())
	}
	// A flag of a retired systems mode is undefined, which is also status 2.
	if code := run([]string{"-hotpath"}, &stderr); code != 2 {
		t.Errorf("-hotpath: exit status %d, want 2", code)
	}
}
