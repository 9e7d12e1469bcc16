package repro

// docs_lint_test enforces deliverable-grade documentation mechanically:
// every exported identifier in every package of this module must carry a
// doc comment, and the docs name only Makefile targets, benchmark records
// and Go identifiers that exist.

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

// TestDocsNameRealIdentifiers keeps the docs in step with the code: every
// backticked `pkg.Name` or `pkg.Type.Member` (optionally called, `()`) in
// README.md, DESIGN.md or EXPERIMENTS.md whose pkg is a package under
// internal/ must resolve to a declaration in that package's non-test
// sources. Name may be a package-level declaration or the name of a method
// or struct field declared there; Type.Member must be a method, struct field
// or interface method of Type, or one promoted through a type it embeds.
// Unexported names count like exported ones.
func TestDocsNameRealIdentifiers(t *testing.T) {
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]*pkgDecls{}
	for _, e := range entries {
		if e.IsDir() {
			pkgs[e.Name()] = parsePkgDecls(t, filepath.Join("internal", e.Name()))
		}
	}
	ref := regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(\))?$`)
	span := regexp.MustCompile("`([^`\n]+)`")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range span.FindAllStringSubmatch(string(raw), -1) {
			r := ref.FindStringSubmatch(m[1])
			if r == nil {
				continue
			}
			p := pkgs[r[1]]
			if p == nil {
				continue
			}
			if !p.resolves(r[2], r[3]) {
				t.Errorf("%s names `%s`, which internal/%s does not declare", doc, m[1], r[1])
			}
		}
	}
}

// pkgDecls indexes the names one package declares.
type pkgDecls struct {
	top     map[string]bool            // package-level funcs, types, vars, consts
	members map[string]map[string]bool // type → its methods and fields
	embeds  map[string][]string        // type → the package's types it embeds
	any     map[string]bool            // every method and field name
}

func parsePkgDecls(t *testing.T, dir string) *pkgDecls {
	t.Helper()
	p := &pkgDecls{
		top:     map[string]bool{},
		members: map[string]map[string]bool{},
		embeds:  map[string][]string{},
		any:     map[string]bool{},
	}
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
		p.any[name] = true
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					p.top[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							p.top[n.Name] = true
						}
					case *ast.TypeSpec:
						typ := sp.Name.Name
						p.top[typ] = true
						var fields []*ast.Field
						switch tt := sp.Type.(type) {
						case *ast.StructType:
							fields = tt.Fields.List
						case *ast.InterfaceType:
							fields = tt.Methods.List
						}
						for _, fl := range fields {
							for _, n := range fl.Names {
								member(typ, n.Name)
							}
							if len(fl.Names) == 0 { // embedded
								ft := fl.Type
								if star, ok := ft.(*ast.StarExpr); ok {
									ft = star.X
								}
								if id, ok := ft.(*ast.Ident); ok {
									member(typ, id.Name)
									p.embeds[typ] = append(p.embeds[typ], id.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return p
}

// resolves reports whether name (member empty) or name.member is declared.
func (p *pkgDecls) resolves(name, member string) bool {
	if member == "" {
		return p.top[name] || p.any[name]
	}
	seen := map[string]bool{}
	var has func(typ string) bool
	has = func(typ string) bool {
		if seen[typ] {
			return false
		}
		seen[typ] = true
		if p.members[typ][member] {
			return true
		}
		for _, e := range p.embeds[typ] {
			if has(e) {
				return true
			}
		}
		return false
	}
	return p.top[name] && has(name)
}
