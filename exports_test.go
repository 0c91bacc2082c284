package nbody

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportKeeps are the exported functions under internal/ that no program
// file names and that stay anyway, keyed "package.Name" or
// "package.Recv.Name"; a key ending in "*" covers every name with that
// prefix. An entry that no longer matches an uncalled function fails the
// test too, so the list cannot outlive its reasons.
var exportKeeps = map[string]string{
	"blas.Ddot":            "the reference inner product of blas's row-kernel tests",
	"direct.PotentialAt":   "the pointwise oracle of the bh and core tests",
	"plan.Planner.Tuned":   "read by serve's plan-store test, from another package",
	"pipeline.SetObserver": "the phase runner's event tap, kept for request tracing",
	"faults.Inject*":       "the tests' arming API for fault injection",
}

// stdMethods are method names that satisfy standard-library interfaces,
// called through those interfaces rather than by name.
var stdMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Is": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
	"Read": true, "Write": true, "Close": true,
}

// TestExportedFunctionsHaveCallers fails for every top-level exported
// function or method declared in a non-test file under internal/ whose name
// appears as an identifier in no non-test file of the repository (the root
// package, internal/, cmd/, examples/ and the separate bench module, parsed
// as source, not built) outside its own declaration. internal/testutil is
// exempt: it exists for tests.
//
// The check matches names, not objects: a dead function that shares its
// name with a live identifier anywhere (a field, another method, a local)
// passes unnoticed. So it can miss a dead function but never flags a live
// one.
func TestExportedFunctionsHaveCallers(t *testing.T) {
	type decl struct {
		key   string // package[.Recv].Name, as exportKeeps spells it
		name  string
		where string
		own   int // identifiers of its name inside the declaration itself
	}
	fset := token.NewFileSet()
	uses := map[string]int{}
	var decls []decl
	parse := func(path string, declares bool) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if !declares {
			return
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "."
			if fd.Recv != nil {
				if stdMethods[fd.Name.Name] {
					continue
				}
				key += recvName(fd.Recv.List[0].Type) + "."
			}
			own := 0
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == fd.Name.Name {
					own++
				}
				return true
			})
			decls = append(decls, decl{
				key:   key + fd.Name.Name,
				name:  fd.Name.Name,
				where: fset.Position(fd.Pos()).String(),
				own:   own,
			})
		}
	}

	// The root package's files, then every tree below the four roots.
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range root {
		if !strings.HasSuffix(path, "_test.go") {
			parse(path, false)
		}
	}
	for _, top := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			declares := top == "internal" && !strings.HasPrefix(path, filepath.Join("internal", "testutil")+string(filepath.Separator))
			parse(path, declares)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	matched := map[string]bool{}
	var dead []string
	for _, d := range decls {
		// A declaration's own identifiers of its name (its name, a
		// recursive call) do not count as callers.
		if uses[d.name] > d.own {
			continue
		}
		if keep := keepFor(d.key); keep != "" {
			matched[keep] = true
			continue
		}
		dead = append(dead, d.key+" ("+d.where+")")
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("exported but called by no program file: %s", s)
	}
	for k := range exportKeeps {
		if !matched[k] {
			t.Errorf("exportKeeps[%q] matches no uncalled function; drop the entry", k)
		}
	}
}

// keepFor returns the exportKeeps entry covering key, or "".
func keepFor(key string) string {
	if _, ok := exportKeeps[key]; ok {
		return key
	}
	for k := range exportKeeps {
		if p, ok := strings.CutSuffix(k, "*"); ok && strings.HasPrefix(key, p) {
			return k
		}
	}
	return ""
}

// recvName is the type name of a method receiver: T for T, *T, T[P] and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
