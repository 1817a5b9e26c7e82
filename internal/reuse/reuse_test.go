package reuse

import (
	"os"
	"path/filepath"
	"testing"
)

// repoRoot walks up from the CWD to the directory containing go.mod.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above CWD")
		}
		dir = parent
	}
}

func TestCountLoC(t *testing.T) {
	tmp := filepath.Join(t.TempDir(), "x.go")
	src := `// Package x is a comment.
package x

/* block
comment */
import "fmt"

// F does things.
func F() {
	fmt.Println("hi") // trailing comment counts as code
}
/* one-liner */ var G = 1
`
	if err := os.WriteFile(tmp, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := CountLoC(tmp)
	if err != nil {
		t.Fatal(err)
	}
	// package, import, func, Println, closing brace, var G = 5+1 lines.
	if got != 6 {
		t.Fatalf("CountLoC = %d, want 6", got)
	}
	if _, err := CountLoC(filepath.Join(t.TempDir(), "missing.go")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestManifestFilesExist(t *testing.T) {
	root := repoRoot(t)
	for _, comp := range Manifest() {
		if len(comp.Files) == 0 {
			t.Errorf("%s: no files", comp.Name)
		}
		for _, f := range comp.Files {
			if _, err := os.Stat(filepath.Join(root, f)); err != nil {
				t.Errorf("%s: %v", comp.Name, err)
			}
		}
		if !comp.OLSR && !comp.DYMO && !comp.AODV {
			t.Errorf("%s: used by no protocol", comp.Name)
		}
	}
}

func TestAnalyzeReproducesTable3Shape(t *testing.T) {
	r, err := Analyze(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Table 3: 12 generic components in each composition and
	// generic:specific at least 2:1. The reactive compositions reach 12 with
	// the shared discovery state, OLSR's with the Neighbour Detection CF's
	// link-sensing core, which its MPR CF runs on.
	if r.GenericCountOLSR != 12 || r.GenericCountDYMO != 12 || r.GenericCountAODV != 12 {
		t.Errorf("generic components: OLSR %d, DYMO %d, AODV %d, want 12 each", r.GenericCountOLSR, r.GenericCountDYMO, r.GenericCountAODV)
	}
	if r.GenericCountOLSR < 2*r.SpecificCountOLSR {
		t.Errorf("OLSR generic:specific = %d:%d, want >= 2:1", r.GenericCountOLSR, r.SpecificCountOLSR)
	}
	if r.GenericCountDYMO < 2*r.SpecificCountDYMO {
		t.Errorf("DYMO generic:specific = %d:%d, want >= 2:1", r.GenericCountDYMO, r.SpecificCountDYMO)
	}
	// Fig 7's shape: a majority of each protocol's code base is reused,
	// with DYMO's proportion at least OLSR's (paper: 57% vs 66%).
	if f := r.ReusedFractionOLSR(); f < 0.5 {
		t.Errorf("OLSR reused fraction = %.2f, want >= 0.5", f)
	}
	if f := r.ReusedFractionDYMO(); f < 0.5 {
		t.Errorf("DYMO reused fraction = %.2f, want >= 0.5", f)
	}
	if f := r.ReusedFractionAODV(); f < 0.5 {
		t.Errorf("AODV reused fraction = %.2f, want >= 0.5", f)
	}
	if r.GenericCountAODV < 2*r.SpecificCountAODV {
		t.Errorf("AODV generic:specific = %d:%d, want >= 2:1", r.GenericCountAODV, r.SpecificCountAODV)
	}
	if r.ReusedFractionDYMO() <= r.ReusedFractionOLSR()-0.05 {
		t.Errorf("expected DYMO reuse (%.2f) >= OLSR reuse (%.2f) as in the paper",
			r.ReusedFractionDYMO(), r.ReusedFractionOLSR())
	}
	for _, row := range r.Rows {
		if row.LoC <= 0 {
			t.Errorf("%s: zero LoC", row.Component.Name)
		}
	}
}
