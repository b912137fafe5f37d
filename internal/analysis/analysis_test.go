package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixture type-checks src as a single-file package. The loader is
// rooted at the enclosing module so fixtures may import real segidx
// packages (the errchecklite fixtures call into internal/store).
func loadFixture(t *testing.T, pkgPath, src string) *Package {
	t.Helper()
	root, modPath, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, modPath)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatalf("type-checking fixture: %v", err)
	}
	return pkg
}

// checkFixture runs the analyzer over src and compares the diagnostics
// against "// want <analyzer>" markers in the fixture: every marked line
// must produce exactly one diagnostic from that analyzer, and no unmarked
// line may produce any.
func checkFixture(t *testing.T, a *Analyzer, src string) {
	t.Helper()
	checkFixtureAt(t, a, "fixture", src)
}

// checkFixtureAt is checkFixture with an explicit package path, for rules
// that key on the analyzed package's import path (the errchecklite
// durability rule fires only inside internal/store and internal/core).
func checkFixtureAt(t *testing.T, a *Analyzer, pkgPath, src string) {
	t.Helper()
	pkg := loadFixture(t, pkgPath, src)
	diags := RunUnfiltered(pkg, []*Analyzer{a})

	want := make(map[string]bool) // "line:analyzer"
	for i, line := range strings.Split(src, "\n") {
		if idx := strings.Index(line, "// want "); idx >= 0 {
			name := strings.TrimSpace(line[idx+len("// want "):])
			want[fmt.Sprintf("%d:%s", i+1, name)] = true
		}
	}
	got := make(map[string]bool)
	for _, d := range diags {
		key := fmt.Sprintf("%d:%s", d.Pos.Line, d.Analyzer)
		if got[key] {
			t.Errorf("duplicate diagnostic on line %d: %s", d.Pos.Line, d.Message)
		}
		got[key] = true
		if !want[key] {
			t.Errorf("unexpected diagnostic at line %d: %s", d.Pos.Line, d.Message)
		}
	}
	for key := range want {
		if !got[key] {
			t.Errorf("missing expected diagnostic %q", key)
		}
	}
}

// TestLocksHelpers pins the locked-helper contract: helpers never take
// their caller's lock, and exported callers hold a lock on every path to
// the call.
func TestLocksHelpers(t *testing.T) {
	checkFixture(t, Locks, `package fixture

import "sync"

type Tree struct {
	mu   sync.RWMutex
	size int
}

// helper reads state. The caller must hold t.mu.
func (t *Tree) helper() int { return t.size }

// badHelper re-acquires the lock it requires. The caller must hold t.mu.
func (t *Tree) badHelper() int {
	t.mu.RLock()         // want locks
	defer t.mu.RUnlock() // want locks
	return t.size
}

// Good acquires before calling the helper.
func (t *Tree) Good() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.helper()
}

// Bad never acquires the lock.
func (t *Tree) Bad() int {
	return t.helper() // want locks
}

// Late acquires only after the helper call.
func (t *Tree) Late() int {
	v := t.helper() // want locks
	t.mu.Lock()
	v += t.size
	t.mu.Unlock()
	return v
}

// Early releases the lock on its fast path and then calls the helper:
// the lock is acquired earlier in the source, but not held on this path.
func (t *Tree) Early(x int) int {
	t.mu.Lock()
	if x > 0 {
		t.mu.Unlock()
		return t.helper() // want locks
	}
	defer t.mu.Unlock()
	return t.helper()
}

// Sometimes holds the lock on one arm only when it calls the helper.
func (t *Tree) Sometimes(x int) int {
	if x > 0 {
		t.mu.Lock()
	}
	v := t.helper() // want locks
	t.mu.Unlock()
	return v
}

// Misspelled names no pass, so it suppresses nothing and is reported.
func (t *Tree) Misspelled() int {
	//seglint:allow lokcs — misspelled pass name // want seglint
	return t.helper() // want locks
}

// unexportedCaller is exempt: assumed to run under its caller's lock.
func (t *Tree) unexportedCaller() int { return t.helper() }

// Allowed is excused by directive.
//
//seglint:allow locks — fixture: receiver is unpublished here
func (t *Tree) Allowed() int { return t.helper() }

// NoHelpers needs no lock because it calls no locked helper.
func (t *Tree) NoHelpers() int { return 42 }

// evictLocked is a locked helper by naming convention alone (no doc
// phrase); it must not re-acquire, and exported callers must lock first.
func (t *Tree) evictLocked() {
	t.mu.Lock() // want locks
	t.size--
	t.mu.Unlock() // want locks
}

// Shrink calls a Locked-suffix helper without acquiring.
func (t *Tree) Shrink() {
	t.evictLocked() // want locks
}

// ShrinkSafe locks first.
func (t *Tree) ShrinkSafe() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evictLocked()
}

// shardHelper uses the striped-pool phrasing. The caller must hold the
// shard lock.
func (t *Tree) shardHelper() int { return t.size }

// ShardUser calls it without locking.
func (t *Tree) ShardUser() int {
	return t.shardHelper() // want locks
}

var (
	mu    sync.Mutex
	count int
)

// bareHelper guards a package-level mutex. The caller must hold the lock.
func bareHelper() int { return count }

// bareBad re-acquires the bare identifier mutex. The caller must hold
// the lock.
func bareBad() int {
	mu.Lock()         // want locks
	defer mu.Unlock() // want locks
	return count
}

// BareGood acquires the package-level mutex before the helper call.
func BareGood() int {
	mu.Lock()
	defer mu.Unlock()
	return bareHelper()
}

// scratchLocked locks a function-local scratch mutex; that is not a
// re-acquisition of the caller's lock. The caller must hold t.mu.
func (t *Tree) scratchLocked() int {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	return t.size
}

// LocalOnly locks only a function-local mutex, which cannot satisfy a
// locked helper's contract on the package-level state.
func LocalOnly() int {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	return bareHelper() // want locks
}
`)
}

func TestFloatCmp(t *testing.T) {
	checkFixture(t, FloatCmp, `package fixture

func eq(a, b float64) bool { return a == b } // want floatcmp
func ne(a, b float64) bool { return a != b } // want floatcmp
func zero(x float64) bool  { return x == 0 } // want floatcmp
func f32(a, b float32) bool { return a == b } // want floatcmp

func lt(a, b float64) bool { return a < b }
func ints(a, b int) bool   { return a == b }
func strs(a, b string) bool { return a == b }

const c1, c2 = 1.5, 2.5

var constsEqual = c1 == c2 // exact by definition: both compile-time constants

func mixed(xs []float64, i int) bool {
	return xs[i] == 0 // want floatcmp
}

func allowed(a, b float64) bool {
	return a == b //seglint:allow floatcmp — fixture rationale
}
`)
}

func TestErrCheckLite(t *testing.T) {
	checkFixture(t, ErrCheckLite, `package fixture

import (
	"segidx/internal/page"
	"segidx/internal/store"
)

func drop(st store.Store, id page.ID, buf []byte) {
	st.Write(id, buf)  // want errchecklite
	go st.Free(id)     // want errchecklite
	defer st.Close()   // want errchecklite

	_ = st.Write(id, buf) // explicit discard is the visible opt-out
	if err := st.Write(id, buf); err != nil {
		_ = err
	}
	st.Len() // no error result; fine as a statement

	//seglint:allow errchecklite — fixture rationale
	st.Free(id)
}

func local() {}

func callLocal() { local() } // package-local calls are out of scope
`)
}

// TestErrCheckLiteDurability pins the stricter rule for the commit
// protocol: Write, Sync, and Commit errors may not be dropped even by
// code in the same package.
func TestErrCheckLiteDurability(t *testing.T) {
	src := `package store

type DB struct{}

func (d *DB) Write(p []byte) error { return nil }
func (d *DB) Sync() error          { return nil }
func (d *DB) Commit() error        { return nil }
func (d *DB) Len() int             { return 0 }
func (d *DB) helper() error        { return nil }

func use(d *DB) {
	d.Write(nil)     // want errchecklite
	d.Sync()         // want errchecklite
	defer d.Commit() // want errchecklite
	go d.Sync()      // want errchecklite

	d.Len()    // no error result; fine
	d.helper() // same-package, not part of the commit protocol: fine

	_ = d.Sync() // explicit discard stays the opt-out
	if err := d.Commit(); err != nil {
		_ = err
	}
}
`
	checkFixtureAt(t, ErrCheckLite, "fixture/internal/store", src)

	// The same fixture outside store/core only triggers on nothing: the
	// package rule skips same-package calls and the path has no
	// durability suffix.
	clean := strings.ReplaceAll(src, " // want errchecklite", "")
	checkFixtureAt(t, ErrCheckLite, "fixture/internal/other", clean)
}

func TestNodePanic(t *testing.T) {
	checkFixture(t, NodePanic, `package fixture

import (
	"fmt"
	"io"
	"log"
	"os"
)

func bad(x int) {
	if x < 0 {
		panic("negative") // want nodepanic
	}
	fmt.Println("hi")   // want nodepanic
	fmt.Printf("%d", x) // want nodepanic
	fmt.Print(x)        // want nodepanic
	log.Fatalf("bye")   // want nodepanic
	log.Panicln("no")   // want nodepanic
	os.Exit(1)          // want nodepanic
	println("dbg")      // want nodepanic
}

func ok(w io.Writer, x int) error {
	fmt.Fprintf(w, "%d", x) // caller-supplied writer: fine
	s := fmt.Sprintf("%d", x)
	return fmt.Errorf("x=%s", s)
}

// MustOK is excused by a doc-comment directive covering the whole function.
//
//seglint:allow nodepanic — fixture: Must-style constructor
func MustOK(x int) int {
	if x < 0 {
		panic("negative")
	}
	return x
}
`)
}

// TestAppliesTo pins the package filters: floatcmp only guards geom/core,
// and the library-package filter exempts cmd and examples.
func TestAppliesTo(t *testing.T) {
	cases := []struct {
		a    *Analyzer
		path string
		want bool
	}{
		{FloatCmp, "segidx/internal/geom", true},
		{FloatCmp, "segidx/internal/core", true},
		{FloatCmp, "segidx/internal/workload", false},
		{NodePanic, "segidx/internal/core", true},
		{NodePanic, "segidx/cmd/segbench", false},
		{NodePanic, "segidx/examples/quickstart", false},
		{NodePanic, "segidx", true},
		{Locks, "segidx/rulelock", true},
		{ErrCheckLite, "segidx/cmd/seglint", false},
	}
	for _, c := range cases {
		if got := c.a.AppliesTo(c.path); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
}

// TestLoaderLoadsRealPackage exercises the loader against an actual module
// package, including its transitive module-internal imports.
func TestLoaderLoadsRealPackage(t *testing.T) {
	root, modPath, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader(root, modPath)
	pkg, err := l.Load("segidx/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "core" {
		t.Fatalf("package name = %q", pkg.Types.Name())
	}
	if len(pkg.Files) == 0 {
		t.Fatal("no files loaded")
	}
	// The cache must return the identical package on re-load.
	again, err := l.Load("segidx/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	if again != pkg {
		t.Fatal("loader did not cache the package")
	}
}

func TestMatchPatterns(t *testing.T) {
	l := &Loader{ModulePath: "segidx"}
	cases := []struct {
		pkg, pattern string
		want         bool
	}{
		{"segidx", "./...", true},
		{"segidx/internal/geom", "./...", true},
		{"segidx/internal/geom", "./internal/...", true},
		{"segidx/internal/geom", "./internal/geom", true},
		{"segidx/internal/geom", "./internal/core", false},
		{"segidx/internal/geom", "segidx/internal/geom", true},
		{"segidx", "./internal/...", false},
	}
	for _, c := range cases {
		if got := l.Match(c.pkg, c.pattern); got != c.want {
			t.Errorf("Match(%q, %q) = %v, want %v", c.pkg, c.pattern, got, c.want)
		}
	}
}

func TestHotAlloc(t *testing.T) {
	checkFixture(t, HotAlloc, `package fixture

type Rect struct{ Min, Max []float64 }

func (r Rect) Clone() Rect {
	return Rect{Min: append([]float64(nil), r.Min...), Max: append([]float64(nil), r.Max...)}
}

type queryCtx struct {
	stack   []uint64
	entries []Rect
}

type Tree struct{ qc queryCtx }

// hot is on the read path.
//
//seglint:hotpath
func (t *Tree) hot(r Rect) int {
	seen := make(map[uint64]bool) // want hotalloc
	buf := []float64{1, 2}        // want hotalloc
	c := r.Clone()                // want hotalloc
	var local []Rect
	local = append(local, c) // want hotalloc
	t.qc.stack = append(t.qc.stack, 1)
	t.qc.entries = append(t.qc.entries, r)
	return len(seen) + len(buf) + len(local) + len(t.qc.stack)
}

// hotAllowed documents a deliberate exception.
//
//seglint:hotpath
func (t *Tree) hotAllowed(r Rect) Rect {
	//seglint:allow hotalloc — fixture: cold error branch
	c := r.Clone()
	return c
}

// cold is unmarked: the same constructs are fine here.
func (t *Tree) cold(r Rect) []Rect {
	out := make([]Rect, 0, 4)
	return append(out, r.Clone())
}
`)
}
