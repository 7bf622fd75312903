package lpvs_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// exportAllowlist lists the exported funcs and methods under internal/
// that no non-test file calls, one a line: the package directory, the
// name (Recv.Method for a method), and the reason it stays.
const exportAllowlist = "testdata/exports_allowlist.txt"

// exportReasons are the reasons an allowlist row may give: a method a
// standard-library interface calls, a reference implementation tests
// compare against, or a helper that exists for tests.
var exportReasons = []string{"stdlib interface:", "reference:", "test harness:"}

// TestInternalExportsHaveCallers fails when an exported func or method
// under internal/ is called by no non-test .go file of the module and
// is not on the allowlist, and when an allowlist row names something
// that has such a caller or no longer exists. The module is type-checked
// from source (uncalledExports), so a name another type or package
// shares does not count as a call.
func TestInternalExportsHaveCallers(t *testing.T) {
	start := time.Now()
	uncalled, declared, err := uncalledExports(".", "lpvs")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("type-checked the module in %v", time.Since(start).Round(time.Millisecond))

	allowed := readExportAllowlist(t)
	for _, key := range uncalled {
		if _, ok := allowed[key]; !ok {
			t.Errorf("%s: exported, but no non-test file calls it; delete it, or allowlist it in %s with its reason", key, exportAllowlist)
		}
	}
	for key := range allowed {
		switch {
		case !declared[key]:
			t.Errorf("%s: allowlisted, but no such exported func or method; remove its row from %s", key, exportAllowlist)
		case !slices.Contains(uncalled, key):
			t.Errorf("%s: allowlisted, but a non-test file calls it; remove its row from %s", key, exportAllowlist)
		}
	}
}

// TestUncalledExportsFixture runs the checker over a fixture module
// (testdata/exportsfixture, which ./... does not build): a method whose
// name a called method of another type shares, and a package func whose
// name a called method shares, are uncalled; a method non-test code
// reaches only through an interface value is called.
func TestUncalledExportsFixture(t *testing.T) {
	uncalled, _, err := uncalledExports("testdata/exportsfixture", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/fix B.Run", "internal/fix Run"}
	if !slices.Equal(uncalled, want) {
		t.Errorf("uncalled = %q, want %q", uncalled, want)
	}
}

// uncalledExports type-checks the non-test files of every package of
// the module rooted at root (module path modPath; testdata and dot
// directories skipped), selecting files as go/build's default context
// does and importing the standard library through importer.Default.
// It returns, sorted, the exported funcs and methods under internal/
// that no non-test file calls, keyed "dir Name" or "dir Recv.Method",
// and the set of every such key declared. A func or method is called
// where non-test code uses it or its generic origin; a method also
// where non-test code calls a method of its name on an interface value
// that its receiver type, or a pointer to it, implements.
func uncalledExports(root, modPath string) (uncalled []string, declared map[string]bool, err error) {
	l := &moduleLoader{
		root: root, modPath: modPath,
		fset: token.NewFileSet(), std: importer.Default(),
		pkgs: map[string]*types.Package{}, internal: map[string]*types.Package{},
		used: map[*types.Func]bool{}, methodCalls: map[string][]types.Type{},
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		dirs = append(dirs, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, dir := range dirs {
		pkg, err := l.load(dir)
		if err != nil {
			return nil, nil, err
		}
		if pkg != nil && strings.HasPrefix(dir, "internal/") {
			l.internal[dir] = pkg
		}
	}

	declared = map[string]bool{}
	for dir, pkg := range l.internal {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					key := dir + " " + name
					declared[key] = true
					if !l.used[obj] {
						uncalled = append(uncalled, key)
					}
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := range named.NumMethods() {
					m := named.Method(i)
					if !m.Exported() {
						continue
					}
					key := dir + " " + name + "." + m.Name()
					declared[key] = true
					if !l.used[m] && !l.calledThroughInterface(named, m.Name()) {
						uncalled = append(uncalled, key)
					}
				}
			}
		}
	}
	slices.Sort(uncalled)
	return uncalled, declared, nil
}

// moduleLoader type-checks a module's packages from source, each once,
// and records what their non-test files call.
type moduleLoader struct {
	root, modPath string
	fset          *token.FileSet
	std           types.Importer
	pkgs          map[string]*types.Package // by directory; nil for one with no Go files
	internal      map[string]*types.Package // the packages under internal/, by directory

	used        map[*types.Func]bool    // funcs and methods used, by their generic origin
	methodCalls map[string][]types.Type // method name -> receiver types it is selected on
}

// Import implements types.Importer: the module's packages load from
// source, the rest through importer.Default.
func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path == l.modPath {
		return l.load(".")
	}
	if rel, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return l.load(rel)
	}
	return l.std.Import(path)
}

// load type-checks the package in dir (relative to the module root) and
// records its uses, once.
func (l *moduleLoader) load(dir string) (*types.Package, error) {
	if pkg, ok := l.pkgs[dir]; ok {
		return pkg, nil
	}
	bp, err := build.ImportDir(filepath.Join(l.root, dir), 0)
	if _, none := err.(*build.NoGoError); none {
		l.pkgs[dir] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	path := l.modPath
	if dir != "." {
		path += "/" + dir
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", dir, err)
	}
	l.pkgs[dir] = pkg
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			l.used[fn.Origin()] = true
		}
	}
	for _, sel := range info.Selections {
		if sel.Kind() != types.FieldVal {
			name := sel.Obj().Name()
			l.methodCalls[name] = append(l.methodCalls[name], sel.Recv())
		}
	}
	return pkg, nil
}

// calledThroughInterface reports whether non-test code calls a method
// named name on an interface value that named, or a pointer to it,
// implements.
func (l *moduleLoader) calledThroughInterface(named *types.Named, name string) bool {
	for _, recv := range l.methodCalls[name] {
		iface, _ := recv.Underlying().(*types.Interface)
		if iface != nil && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
			return true
		}
	}
	return false
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
