package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestKnobBudget keeps the module's configuration surface auditable: every
// field of every exported struct type named *Config, *Options or Spec in
// non-test source outside benchmark/ and testdata/ must appear in
// knob_budget.txt, one "path<TAB>Type.Field" line per field. A new knob
// fails this test until the budget is regenerated, so it reaches review as
// a one-line diff to knob_budget.txt.
//
// Regenerate with:
//
//	MANETKIT_UPDATE_GOLDEN=1 go test ./internal/analysis -run TestKnobBudget
func TestKnobBudget(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found at %s: %v", root, err)
	}

	var got []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// benchmark/ is its own module; fixtures and tool state are not
			// the root module's API.
			rel, _ := filepath.Rel(root, path)
			if name := d.Name(); name == "testdata" || rel == "benchmark" || strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				name := ts.Name.Name
				if !ts.Name.IsExported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || name == "Spec") {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					if len(field.Names) == 0 {
						got = append(got, fmt.Sprintf("%s\t%s.%s", rel, name, types.ExprString(field.Type)))
					}
					for _, n := range field.Names {
						got = append(got, fmt.Sprintf("%s\t%s.%s", rel, name, n.Name))
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	body := strings.Join(got, "\n") + "\n"

	budgetPath := filepath.Join(root, "internal", "analysis", "knob_budget.txt")
	if os.Getenv("MANETKIT_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(budgetPath, []byte(body), 0o666); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d knobs", budgetPath, len(got))
		return
	}
	data, err := os.ReadFile(budgetPath)
	if err != nil {
		t.Fatalf("read %s: %v (regenerate with MANETKIT_UPDATE_GOLDEN=1 go test ./internal/analysis -run TestKnobBudget)", budgetPath, err)
	}
	budgeted := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		budgeted[line] = true
	}
	for _, line := range got {
		if !budgeted[line] {
			t.Errorf("knob not in the budget:\n  %s\nreview it and regenerate knob_budget.txt", line)
		}
		delete(budgeted, line)
	}
	for line := range budgeted {
		t.Errorf("stale budget entry:\n  %s\nregenerate knob_budget.txt", line)
	}
}
