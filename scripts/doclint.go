//go:build ignore

// Command doclint enforces the repository's documentation floor:
//
//  1. every package under internal/ and cmd/ carries a package comment;
//  2. every exported top-level declaration (and exported method) in the
//     convention-setting packages (internal/ci, internal/obs,
//     internal/serve, internal/sfi, internal/stats, internal/trace,
//     internal/workpool — the fault-injection, statistics,
//     observability, service-API, and scheduling layers the rest of the
//     tree builds on) carries a doc comment.
//
// It is wired into scripts/check.sh; run standalone with
//
//	go run scripts/doclint.go
//
// Exit status is non-zero with one line per violation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// exportDocPkgs are the packages whose exported declarations must all
// carry doc comments, not just a package comment.
var exportDocPkgs = map[string]bool{
	"internal/ci":       true,
	"internal/obs":      true,
	"internal/serve":    true,
	"internal/sfi":      true,
	"internal/stats":    true,
	"internal/trace":    true,
	"internal/workpool": true,
}

func main() {
	var problems []string

	dirs, err := packageDirs("internal", "cmd")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	for _, dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
			continue
		}
		for name, pkg := range pkgs {
			if !hasPackageComment(pkg) {
				problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, name))
			}
			if exportDocPkgs[filepath.ToSlash(dir)] {
				problems = append(problems, undocumentedExports(fset, pkg)...)
			}
		}
	}

	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "doclint:", p)
		}
		os.Exit(1)
	}
}

// packageDirs returns every directory under the given roots that holds
// at least one non-test .go file.
func packageDirs(roots ...string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			dir := filepath.Dir(path)
			if !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasPackageComment reports whether any file of the package carries a
// doc comment on its package clause.
func hasPackageComment(pkg *ast.Package) bool {
	for _, f := range pkg.Files {
		if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
			return true
		}
	}
	return false
}

// undocumentedExports lists every exported top-level declaration and
// exported method without a doc comment.
func undocumentedExports(fset *token.FileSet, pkg *ast.Package) []string {
	var out []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
							report(s.Pos(), "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && d.Doc == nil && s.Doc == nil {
								report(s.Pos(), "value", n.Name)
							}
						}
					}
				}
			}
		}
	}
	return out
}
