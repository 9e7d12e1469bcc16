package repro

// docs_lint_test enforces deliverable-grade documentation mechanically:
// every exported identifier in every package of this module must carry a
// doc comment, and the docs name only Makefile targets and benchmark
// records that exist.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestAllExportedIdentifiersDocumented(t *testing.T) {
	var violations []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "examples" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil // commands document via the package comment
		}
		for _, decl := range f.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Name.IsExported() && dd.Doc == nil {
					violations = append(violations, fmt.Sprintf("%s: func %s", path, dd.Name.Name))
				}
			case *ast.GenDecl:
				groupDoc := dd.Doc != nil
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
							violations = append(violations, fmt.Sprintf("%s: type %s", path, sp.Name.Name))
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
								violations = append(violations, fmt.Sprintf("%s: %s", path, n.Name))
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error("undocumented exported identifier: " + v)
	}
}

// TestDocsNameRealTargetsAndRecords keeps the docs in step with the tooling:
// every `make X` and every BENCH*.json that README.md, DESIGN.md,
// EXPERIMENTS.md or a Go comment (outside the perfbench module) names must
// be a Makefile target or a file at the repository root.
func TestDocsNameRealTargetsAndRecords(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}

	texts := map[string]string{}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		texts[doc] = string(raw)
	}
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "perfbench" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		var b strings.Builder
		for _, c := range f.Comments {
			b.WriteString(c.Text())
		}
		texts[path] = b.String()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	makeRef := regexp.MustCompile("`make\\s+([a-z][a-z0-9-]*)")
	recordRef := regexp.MustCompile(`BENCH[A-Za-z0-9_]*\.json`)
	for path, text := range texts {
		for _, m := range makeRef.FindAllStringSubmatch(text, -1) {
			if !targets[m[1]] {
				t.Errorf("%s names `make %s`, which the Makefile does not define", path, m[1])
			}
		}
		for _, rec := range recordRef.FindAllString(text, -1) {
			if _, err := os.Stat(rec); err != nil {
				t.Errorf("%s names %s, which does not exist", path, rec)
			}
		}
	}
}
