package comm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mayConstruct lists the directories allowed to build a backend
// cluster or session by hand: comm itself, the two backends, and the
// perfbench module (a separate module measuring the layers directly).
// Everything else goes through NewCluster and Group.
var mayConstruct = []string{"internal/comm", "internal/myrinet", "internal/elan", "perfbench"}

// backendConstructors reports every reference in f to a myrinet/elan
// cluster or session constructor, or to comm.OverMyrinet/OverElan.
// Import aliases are resolved.
func backendConstructors(f *ast.File) []*ast.SelectorExpr {
	pkgs := map[string]string{} // local name -> import path
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		pkgs[name] = path
	}
	var found []*ast.SelectorExpr
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		name := sel.Sel.Name
		switch pkgs[id.Name] {
		case "nicbarrier/internal/myrinet", "nicbarrier/internal/elan":
			if name == "NewCluster" || strings.HasPrefix(name, "New") && strings.Contains(name, "Session") {
				found = append(found, sel)
			}
		case "nicbarrier/internal/comm":
			if name == "OverMyrinet" || name == "OverElan" {
				found = append(found, sel)
			}
		}
		return true
	})
	return found
}

// TestBackendConstructionStaysInComm keeps comm the only way to build
// a cluster: no non-test file outside mayConstruct may name a
// backend constructor, so a new interconnect plugs in at
// comm.NewCluster without edits elsewhere. Tests are exempt (backend
// tests drive their own sessions).
func TestBackendConstructionStaysInComm(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			for _, ok := range mayConstruct {
				if rel == ok {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		for _, sel := range backendConstructors(f) {
			t.Errorf("%s:%d: names %s.%s; build clusters with comm.NewCluster",
				rel, fset.Position(sel.Pos()).Line, sel.X.(*ast.Ident).Name, sel.Sel.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d Go files from %s; is the repository root right?", files, root)
	}
}

// The detector itself must see through aliases and catch every
// constructor shape the boundary forbids.
func TestBackendConstructorsDetector(t *testing.T) {
	src := `package x
import (
	my "nicbarrier/internal/myrinet"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/comm"
)
var a = my.NewCluster
var b = elan.NewSessionWithID
var c = my.NewBroadcastSessionWithID
var d = comm.OverElan
var e = comm.NewCluster
var f = my.SchemeCollective
`
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sel := range backendConstructors(f) {
		names = append(names, sel.X.(*ast.Ident).Name+"."+sel.Sel.Name)
	}
	got := strings.Join(names, " ")
	want := "my.NewCluster elan.NewSessionWithID my.NewBroadcastSessionWithID comm.OverElan"
	if got != want {
		t.Fatalf("detected %q, want %q", got, want)
	}
}
