package lpvs_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist lists the exported funcs and methods under internal/
// that no non-test file names, one a line: the package directory, the
// name (Recv.Method for a method), and the reason it stays.
const exportAllowlist = "testdata/exports_allowlist.txt"

// exportReasons are the reasons an allowlist row may give: a method a
// standard-library interface calls, a reference implementation tests
// compare against, or a helper that exists for tests.
var exportReasons = []string{"stdlib interface:", "reference:", "test harness:"}

// TestInternalExportsHaveCallers fails when an exported func or method
// under internal/ is named by no non-test .go file of the module and
// is not on the allowlist, and when an allowlist row names something
// that has such a caller or no longer exists. The scan is by name only
// (go/parser, no type checking): a package func counts as named where
// its package's files use it or an importer selects it, a method where
// any file selects, or any interface declares, a member of its name. So
// it can miss a method whose name another type shares, but it never
// reports one that is called.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct{ dir, name, method string }
	var decls []decl
	funcRefs := map[string]bool{} // "dir Name": a package func named
	members := map[string]bool{}  // a selector or interface method name
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name -> package directory
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(p, "lpvs/")
			if !ok {
				continue
			}
			name := rel[strings.LastIndex(rel, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = rel
		}
		declared := map[*ast.Ident]bool{}
		for _, dl := range f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !strings.HasPrefix(dir, "internal/") || !fn.Name.IsExported() {
				continue
			}
			if fn.Recv == nil {
				decls = append(decls, decl{dir: dir, name: fn.Name.Name})
				continue
			}
			recv := fn.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch r := recv.(type) {
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			decls = append(decls, decl{dir: dir, name: recv.(*ast.Ident).Name, method: fn.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				members[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					funcRefs[imports[x.Name]+" "+n.Sel.Name] = true
				}
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						members[name.Name] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					funcRefs[dir+" "+n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	allowed := readExportAllowlist(t)
	var uncalled []string
	for _, d := range decls {
		key := d.dir + " " + d.name
		called := funcRefs[key]
		if d.method != "" {
			key += "." + d.method
			called = members[d.method]
		}
		_, ok := allowed[key]
		switch {
		case called && ok:
			t.Errorf("%s: allowlisted, but a non-test file names it; remove its row from %s", key, exportAllowlist)
		case !called && !ok:
			uncalled = append(uncalled, key)
		}
		delete(allowed, key)
	}
	slices.Sort(uncalled)
	for _, key := range uncalled {
		t.Errorf("%s: exported, but no non-test file names it; delete it, or allowlist it in %s with its reason", key, exportAllowlist)
	}
	for key := range allowed {
		t.Errorf("%s: allowlisted, but no such exported func or method; remove its row from %s", key, exportAllowlist)
	}
}

// readExportAllowlist reads exportAllowlist's rows, keyed "dir Name" or
// "dir Recv.Method". Blank lines and # comments are skipped.
func readExportAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(exportAllowlist)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[string]string{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.SplitN(text, " ", 3)
		if len(fields) < 3 || !slices.ContainsFunc(exportReasons, func(r string) bool {
			return strings.HasPrefix(fields[2], r) && len(strings.TrimSpace(fields[2][len(r):])) > 0
		}) {
			t.Errorf("%s:%d: want \"<dir> <Name> <reason>\", the reason one of %q and its detail: %q", exportAllowlist, line, exportReasons, text)
			continue
		}
		key := fields[0] + " " + fields[1]
		if _, dup := rows[key]; dup {
			t.Errorf("%s:%d: %s listed twice", exportAllowlist, line, key)
		}
		rows[key] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}
