package analysis_test

import (
	"bytes"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"manetkit/internal/analysis"
	"manetkit/internal/analysis/analysistest"
)

func TestDeterminismFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "determ", analysis.Determinism)
}

func TestDeterminismSkipsVclock(t *testing.T) {
	// The facade itself grounds Clock in package time: zero diagnostics.
	analysistest.Run(t, "testdata", "vclock", analysis.Determinism)
}

func TestLockemitFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "core", analysis.Lockemit)
}

func TestLockemitFromImportingPackage(t *testing.T) {
	analysistest.Run(t, "testdata", "lockuser", analysis.Lockemit)
}

func TestCtxleakFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "ctxleakfix", analysis.Ctxleak)
}

func TestAtomicstatsFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "atomicfix", analysis.Atomicstats)
}

func TestMaporderFixture(t *testing.T) {
	analysistest.Run(t, "testdata", "maporderfix", analysis.Maporder)
}

// TestCrossPackageFacts drives factuser, whose transitive lockemit and
// maporder diagnostics exist only if factlib's fact summaries crossed the
// package boundary (the analysistest importer mirrors mkvet's PackageVetx
// hand-off).
func TestCrossPackageFacts(t *testing.T) {
	analysistest.Run(t, "testdata", "factuser", analysis.Lockemit, analysis.Maporder)
}

// TestExportedFactSummaries asserts on the summaries themselves: what a
// package writes into its fact file for importers.
func TestExportedFactSummaries(t *testing.T) {
	lib := analysistest.Facts(t, "testdata", "factlib")
	notify, ok := lib.Lookup("factlib.Notify")
	if !ok || len(notify.Emit) == 0 || notify.Emit[len(notify.Emit)-1] != "(core.Env).Emit" {
		t.Errorf("factlib.Notify summary = %+v, want Emit path ending in (core.Env).Emit", notify)
	}
	write, ok := lib.Lookup("factlib.Write")
	if !ok || len(write.Sink) == 0 || write.Sink[len(write.Sink)-1] != "io.WriteString" {
		t.Errorf("factlib.Write summary = %+v, want Sink path ending in io.WriteString", write)
	}

	mo := analysistest.Facts(t, "testdata", "maporderfix")
	for _, fn := range []string{"maporderfix.unsortedKeys", "maporderfix.wrappedKeys"} {
		if f, ok := mo.Lookup(fn); !ok || !f.MapOrdered {
			t.Errorf("%s summary = %+v, want MapOrdered", fn, f)
		}
	}
	if f, ok := mo.Lookup("maporderfix.insertionKeys"); ok && f.MapOrdered {
		t.Errorf("maporderfix.insertionKeys summary = %+v: audited append must not taint the result", f)
	}
	if f, ok := mo.Lookup("maporderfix.dump"); !ok || len(f.Sink) == 0 {
		t.Errorf("maporderfix.dump summary = %+v, want a Sink path", f)
	}
}

func TestMalformedDirectivesReported(t *testing.T) {
	fset, files, pkg, info := analysistest.Load(t, "testdata", "directivefix")
	diags, err := analysis.Run(fset, files, pkg, info, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 mkdirective findings: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "mkdirective" {
			t.Fatalf("unexpected analyzer %q in %s", d.Analyzer, d)
		}
		if !strings.Contains(d.Message, "malformed //mk:allow") {
			t.Fatalf("unexpected message: %s", d)
		}
	}
}

// runSource type-checks one source file as package p and runs the whole
// suite over it.
func runSource(t *testing.T, src string) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(fset, []*ast.File{f}, pkg, info, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestLeftoverDirectiveReported: the markers of deleted analyzers are
// unknown directives now, each reported where it stands instead of silently
// checking nothing. (Spelled in two halves so that a grep for the markers
// over the repository's Go files stays empty.)
func TestLeftoverDirectiveReported(t *testing.T) {
	stale := []string{"//mk:" + "parallel" + "prep", "//mk:" + "hotpath", "//mk:" + "non" + "blocking"}
	src := "package p\n\n// prep is node-local.\n//\n" + stale[0] + "\nfunc prep() {}\n\n" +
		stale[1] + "\nfunc hot() {}\n\n" + stale[2] + "\nfunc publish() {}\n"
	diags := runSource(t, src)
	if len(diags) != len(stale) {
		t.Fatalf("got %v, want one mkdirective finding per leftover marker %v", diags, stale)
	}
	for i, d := range diags {
		if d.Analyzer != "mkdirective" || d.Pos.Line != 5+3*i ||
			!strings.Contains(d.Message, "unknown directive "+stale[i]) {
			t.Errorf("finding %d = %v, want an unknown-directive finding on line %d naming %s", i, d, 5+3*i, stale[i])
		}
	}
}

// TestUnknownAllowNameReported: an //mk:allow naming an analyzer the suite
// lacks — a typo, or a deleted analyzer's leftover — suppresses nothing and
// is reported; the known names in the same list still suppress.
func TestUnknownAllowNameReported(t *testing.T) {
	stale := "hot" + "alloc"
	src := "package p\n\nimport \"time\"\n\n" +
		"func typo() {} //mk:allow hotaloc cold path\n\n" +
		"func leftover() {} //mk:allow " + stale + " cold path\n\n" +
		"func mixed() time.Time { return time.Now() } //mk:allow determinism,nope wall-clock benchmark\n\n" +
		"func known() time.Time { return time.Now() } //mk:allow determinism wall-clock benchmark\n"
	diags := runSource(t, src)
	want := []struct {
		line int
		name string
	}{{5, "hotaloc"}, {7, stale}, {9, "nope"}}
	if len(diags) != len(want) {
		t.Fatalf("got %v, want %d mkdirective findings", diags, len(want))
	}
	for i, w := range want {
		d := diags[i]
		if d.Analyzer != "mkdirective" || d.Pos.Line != w.line || !strings.Contains(d.Message, `names "`+w.name+`"`) {
			t.Errorf("finding %d = %v, want an unknown-analyzer finding on line %d naming %q", i, d, w.line, w.name)
		}
	}
}

func TestSuiteShape(t *testing.T) {
	all := analysis.All()
	if len(all) != 5 {
		t.Fatalf("suite has %d analyzers, want 5", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v is missing a name, doc or run function", a)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if analysis.ByName(a.Name) != a {
			t.Fatalf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if analysis.ByName("nope") != nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

// TestFactFilesAcrossTheImpureRemoval: fact files older mkvet builds wrote —
// same header, with "impure", "alloc" or "block" paths on some functions —
// still decode, their other facts intact, and merge with a file written
// today, which has none of those keys. cmd/go may hand a new tool a
// dependency's cached old file.
func TestFactFilesAcrossTheImpureRemoval(t *testing.T) {
	olds := []string{
		`{"funcs":{"lib.Notify":{"emit":["(core.Env).Emit"],"impure":["(core.Env).Emit"]},"lib.Draw":{"impure":["math/rand.Intn (RNG draw)"]}}}`,
		`{"funcs":{"lib.Dump":{"alloc":["fmt.Fprintf"],"block":["io.Writer.Write (I/O)"],"sink":["fmt.Fprintf"]},"lib.Grow":{"alloc":["make"]}}}`,
	}
	set := analysis.NewFactSet()
	for _, body := range olds {
		old, err := analysis.DecodeFacts(strings.NewReader(analysis.FactsHeader + "\n" + body + "\n"))
		if err != nil {
			t.Fatalf("old fact file %s: %v", body, err)
		}
		set.Merge(old)
	}
	if f, ok := set.Lookup("lib.Notify"); !ok || len(f.Emit) != 1 || f.Emit[0] != "(core.Env).Emit" {
		t.Fatalf("lib.Notify from the old file = %+v, want its Emit path", f)
	}
	if f, ok := set.Lookup("lib.Dump"); !ok || len(f.Sink) != 1 || f.Sink[0] != "fmt.Fprintf" {
		t.Fatalf("lib.Dump from the old file = %+v, want its Sink path", f)
	}

	var buf bytes.Buffer
	if err := analysis.EncodeFacts(&buf, set); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"impure"`, `"alloc"`, `"block"`} {
		if strings.Contains(buf.String(), key) {
			t.Fatalf("a fact file written today still mentions %s: %s", key, buf.String())
		}
	}
	reread, err := analysis.DecodeFacts(&buf)
	if err != nil {
		t.Fatalf("new fact file: %v", err)
	}
	if got := strings.Join(reread.Names(), ","); got != "lib.Draw,lib.Dump,lib.Grow,lib.Notify" {
		t.Fatalf("re-encoded set holds %s", got)
	}
}
