package protoacc

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateInventory = flag.Bool("update", false, "rewrite testdata/concurrency.txt")

// inventoryRoots are the trees whose non-test code the concurrency
// inventory covers: the serving plane, the workloads package and the
// commands.
var inventoryRoots = []string{"internal/serve", "internal/workloads", "cmd"}

// inventoryTimers are the time package calls that start a timer or
// block on the wall clock.
var inventoryTimers = map[string]bool{
	"Sleep": true, "NewTimer": true, "After": true, "AfterFunc": true, "NewTicker": true, "Tick": true,
}

// TestConcurrencyInventory pins where the serving plane starts
// goroutines, sleeps, arms timers and makes channels: one
// "path:func: kind" line per site, in file and source order, compared
// with testdata/concurrency.txt. Adding or moving such a site is an edit
// to that file, so it shows up in review; `go test -run
// TestConcurrencyInventory -update .` rewrites it.
func TestConcurrencyInventory(t *testing.T) {
	var lines []string
	for _, root := range inventoryRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			sites, err := concurrencySites(path)
			lines = append(lines, sites...)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/concurrency.txt"
	if *updateInventory {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the concurrency inventory changed; review the sites and rerun with -update to accept.\ngot:\n%swant:\n%s", got, want)
	}
}

// concurrencySites parses one file and returns its inventory lines.
func concurrencySites(path string) ([]string, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, decl := range f.Decls {
		name := "-" // a package-level declaration
		if fn, ok := decl.(*ast.FuncDecl); ok {
			name = fn.Name.Name
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			kind := ""
			switch n := n.(type) {
			case *ast.GoStmt:
				kind = "go"
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && inventoryTimers[sel.Sel.Name] {
						kind = "time." + sel.Sel.Name
					}
				}
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) > 0 {
					if _, ok := n.Args[0].(*ast.ChanType); ok {
						kind = "make(chan)"
					}
				}
			}
			if kind != "" {
				out = append(out, filepath.ToSlash(path)+":"+name+": "+kind)
			}
			return true
		})
	}
	return out, nil
}
