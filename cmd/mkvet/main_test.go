// Protocol tests: drive the built mkvet binary through the real
// `go vet -vettool` protocol over scratch modules, asserting the three
// contracts cmd/go relies on — fact files round-trip across package
// boundaries via VetxOutput/PackageVetx, the -V=full cache key is stable,
// and diagnostic output is deterministically ordered.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var toolPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mkvet-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolPath = filepath.Join(dir, "mkvet")
	build := exec.Command("go", "build", "-o", toolPath, ".")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building mkvet: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// writeScratchModule materializes a throwaway module in a temp dir.
func writeScratchModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runVet runs `go vet -vettool=mkvet <patterns>` inside dir.
func runVet(t *testing.T, dir string, patterns ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + toolPath}, patterns...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func runTool(t *testing.T, args ...string) string {
	t.Helper()
	out, err := exec.Command(toolPath, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("mkvet %v: %v\n%s", args, err, out)
	}
	return string(out)
}

// TestFlagsHandshake: cmd/go probes the tool's analyzer flags first.
func TestFlagsHandshake(t *testing.T) {
	if got := strings.TrimSpace(runTool(t, "-flags")); got != "[]" {
		t.Fatalf("mkvet -flags = %q, want []", got)
	}
}

// TestVersionCacheKeyStable: the -V=full line feeds the vet result cache key,
// so it must be identical across invocations of the same binary and change
// shape only with the documented format.
func TestVersionCacheKeyStable(t *testing.T) {
	first := runTool(t, "-V=full")
	second := runTool(t, "-V=full")
	if first != second {
		t.Fatalf("-V=full unstable across runs:\n%q\n%q", first, second)
	}
	re := regexp.MustCompile(`^mkvet version devel buildID=[0-9a-f]{24}\n$`)
	if !re.MatchString(first) {
		t.Fatalf("-V=full = %q, want match for %s", first, re)
	}
}

// TestCrossPackageFactsViaVetx is the round-trip test for the fact protocol:
// a scratch module whose app package only violates invariants through
// helpers in a sibling package. The diagnostics below exist only if lib's
// summaries were serialized to its VetxOutput file and read back through
// app's PackageVetx map by a separate tool process.
func TestCrossPackageFactsViaVetx(t *testing.T) {
	dir := writeScratchModule(t, map[string]string{
		"go.mod": "module factprobe\n\ngo 1.22\n",
		// core mirrors just enough of manetkit/internal/core for the lockemit
		// surface (matched by package base name).
		"core/core.go": `package core

import "sync"

type Event struct{ Type string }

type TicketMutex struct{ mu sync.Mutex }

func (t *TicketMutex) Lock()   { t.mu.Lock() }
func (t *TicketMutex) Unlock() { t.mu.Unlock() }

type Protocol struct{ section TicketMutex }

func (p *Protocol) Section() *TicketMutex { return &p.section }

type Env struct{}

func (e *Env) Emit(from string, ev *Event) {}
`,
		"lib/lib.go": `package lib

import (
	"factprobe/core"
	"io"
)

func Notify(e *core.Env, ev *core.Event) {
	e.Emit("notify", ev)
}

func Write(w io.Writer, s string) {
	io.WriteString(w, s)
}
`,
		"app/app.go": `package app

import (
	"factprobe/core"
	"factprobe/lib"
	"io"
)

func NotifyLocked(p *core.Protocol, e *core.Env, ev *core.Event) {
	sec := p.Section()
	sec.Lock()
	defer sec.Unlock()
	lib.Notify(e, ev)
}

func WriteKeys(w io.Writer, m map[string]int) {
	for k := range m {
		lib.Write(w, k)
	}
}
`,
	})
	out, err := runVet(t, dir, "./...")
	if err == nil {
		t.Fatalf("go vet succeeded, want exit 2 with diagnostics:\n%s", out)
	}
	for _, want := range []string{
		"call to lib.Notify while holding sec reaches (core.Env).Emit (call chain: lib.Notify -> (core.Env).Emit)",
		"call to lib.Write inside range over map reaches io.WriteString (call chain: lib.Write -> io.WriteString)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("vet output missing %q:\n%s", want, out)
		}
	}
	// The helpers themselves are clean: no lock is held in lib, no map is
	// ranged there, so every diagnostic must anchor in app.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, ".go:") && !strings.Contains(line, filepath.Join("app", "app.go")) {
			t.Errorf("diagnostic outside app package: %q", line)
		}
	}
}

// TestDiagnosticOrderDeterministic: diagnostics must come out sorted by
// (file, line, column) and be byte-identical across runs — cmd/go caches and
// replays tool output, so nondeterministic ordering would churn the cache
// and produce flaky CI diffs.
func TestDiagnosticOrderDeterministic(t *testing.T) {
	dir := writeScratchModule(t, map[string]string{
		"go.mod": "module orderprobe\n\ngo 1.22\n",
		"a.go": `package orderprobe

import "time"

func A() time.Time { return time.Now() }

func A2() { time.Sleep(time.Millisecond) }
`,
		"b.go": `package orderprobe

import "time"

func B() time.Duration { return time.Since(time.Time{}) }
`,
	})
	first, err := runVet(t, dir, ".")
	if err == nil {
		t.Fatalf("go vet succeeded, want diagnostics:\n%s", first)
	}
	second, err := runVet(t, dir, ".")
	if err == nil {
		t.Fatalf("go vet succeeded on rerun, want diagnostics:\n%s", second)
	}
	if diag(first) != diag(second) {
		t.Errorf("diagnostic output differs across runs:\n--- first\n%s\n--- second\n%s", first, second)
	}
	var positions []string
	for _, line := range strings.Split(first, "\n") {
		if i := strings.Index(line, ".go:"); i >= 0 {
			positions = append(positions, line[:i+len(".go:")]+lineNo(line[i+len(".go:"):]))
		}
	}
	want := []string{"a.go:5", "a.go:7", "b.go:5"}
	if len(positions) != len(want) {
		t.Fatalf("got %d diagnostics %v, want %d", len(positions), positions, len(want))
	}
	for i, w := range want {
		if !strings.HasSuffix(positions[i], w) {
			t.Errorf("diagnostic %d at %q, want suffix %q (order must be sorted by file then line)", i, positions[i], w)
		}
	}
}

// diag filters a go vet output down to the diagnostic lines (dropping the
// "# pkg" headers and exit-status noise).
func diag(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, ".go:") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// lineNo returns the leading digits of s.
func lineNo(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return s[:i]
		}
	}
	return s
}
