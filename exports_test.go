package selfstab

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unpaid lists the exported names that no non-test file of the module
// uses but that stay, each with what keeps it: a test that holds a live
// path against it or reads a live path through it, or the ROADMAP item
// that rewrites or removes it as a whole.
var unpaid = map[string]string{
	"repro/internal/model.Simulator.RunSteps":           "drives TestRoundTracking and the step zero-alloc tests",
	"repro/internal/model.Simulator.Step":               "FuzzSimulatorVsReference steps it in lockstep with ref.Sim",
	"repro/internal/model.Config.Equal":                 "compares engines in TestSimulatorResetMatchesFresh",
	"repro/internal/graph.Graph.Equal":                  "compares generators in TestCSRMatchesBuilder",
	"repro/internal/graph.Builder.HasEdge":              "the naive G(n,p) and regular references of TestCSRMatchesBuilder",
	"repro/internal/graph.Graph.Diameter":               "TestDiameter and TestRunFaultedOnSilenceEpisodes",
	"repro/internal/graph.Graph.IsBipartite":            "TestIsBipartite",
	"repro/internal/graph.Orientation.TopologicalOrder": "TestOrientByColorIsDag",
	"repro/internal/graph.Graph.CheckInvariants":        "TestDynamicMutationsAgainstOracle and TestChurnContract",
	"repro/internal/graph.Graph.Alive":                  "TestDynamicMutationsAgainstOracle and TestChurnUndoSemantics",
	"repro/internal/graph.RandomizedLocalColoring":      "TestOrientByColorQuick",
	"repro/internal/graph.EncodeString":                 "FuzzGraphEncodingRoundTrip",
	"repro/internal/graph.DecodeString":                 "FuzzGraphEncodingRoundTrip",
	"repro/internal/graph.CanonicalEdgeList":            "FuzzGraphEncodingRoundTrip",
	"repro/internal/bitset.Set.Has":                     "TestAddHasRemove",
	"repro/internal/rng.Rand.SubsetNonEmpty":            "TestSilenceClosedUnderExecution",
	"repro/internal/campaign.Plan.GraphsBuilt":          "TestGraphsAreBuiltOnDemand",
	"repro/internal/obs.Broadcast.Subscribers":          "TestBroadcastDropsLagged",
	"repro/internal/obs.ReplaySink.Events":              "TestReplaySinkArrivalOrderIndependent",
	"repro/internal/service.Run.Done":                   "TestServiceShutdownDrainsAndResumes",
	"repro/internal/service.Coordinator.Remaining":      "ROADMAP item 3 deletes the coordinator with bench/",
	"repro/internal/service.Coordinator.Stop":           "ROADMAP item 3 deletes the coordinator with bench/",
}

// unpaidPackages exempts whole packages the same way.
var unpaidPackages = map[string]string{
	referencePkg: "the reference semantics FuzzSimulatorVsReference and TestStepMatchesReference hold the engine to",
}

// referencePkg is the reference semantics: tests import it, and no other
// package may.
const referencePkg = "repro/internal/model/ref"

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// TestExportsHaveCallers type-checks every package of the module from
// its non-test sources and fails on each exported function, method or
// type of internal/ or the root package that none of them uses. bench/,
// cmd/ and examples/ count as users. A method also counts as used when
// its type satisfies an interface that declares it, from the module or
// from a standard package the module imports. It also fails on a non-test
// file that imports referencePkg.
func TestExportsHaveCallers(t *testing.T) {
	t.Parallel()
	out, err := exec.Command("go", "list", "-deps", "-export", "-f",
		"{{.ImportPath}}\t{{.Standard}}\t{{.Dir}}\t{{.Export}}\t{{join .GoFiles \" \"}}\t{{join .Imports \" \"}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	exports := map[string]string{}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})
	used := map[string]bool{}
	var owned []*types.Package
	// go list -deps prints every package after its dependencies. A package
	// of test files only ends its line in empty fields, so the output is
	// split as printed, not trimmed first.
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Split(line, "\t")
		if len(f) < 6 {
			continue // the empty line after the final newline
		}
		path, dir := f[0], f[2]
		if f[1] == "true" {
			exports[path] = f[3]
			continue
		}
		if slices.Contains(strings.Fields(f[5]), referencePkg) {
			t.Errorf("%s imports %s, which only tests may import", path, referencePkg)
		}
		var files []*ast.File
		for _, name := range strings.Fields(f[4]) {
			file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
		pkg, err := (&types.Config{Importer: imp}).Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		checked[path] = pkg
		if path == "repro" || strings.HasPrefix(path, "repro/internal/") {
			owned = append(owned, pkg)
		}
		for _, obj := range info.Uses {
			used[exportKey(obj)] = true
		}
		for _, sel := range info.Selections {
			if named := namedOf(sel.Recv()); named != nil {
				used[exportKey(named.Obj())] = true
			}
		}
	}

	var ifaces []*types.Interface
	addIfaces := func(p *types.Package) {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams() != nil {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok && it.IsMethodSet() && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, p := range checked {
		addIfaces(p)
		for _, dep := range p.Imports() {
			if _, std := exports[dep.Path()]; std {
				addIfaces(dep)
			}
		}
	}
	satisfies := func(named *types.Named, method string) bool {
		if named.TypeParams() != nil {
			return false
		}
		for _, it := range ifaces {
			if m, _, _ := types.LookupFieldOrMethod(it, false, nil, method); m == nil {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	var missing []string
	for _, pkg := range owned {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() {
				switch obj.(type) {
				case *types.Func, *types.TypeName:
					if !used[exportKey(obj)] {
						missing = append(missing, exportKey(obj))
					}
				}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := range named.NumMethods() {
				m := named.Method(i)
				if m.Exported() && !used[exportKey(m)] && !satisfies(named, m.Name()) {
					missing = append(missing, exportKey(m))
				}
			}
		}
	}
	slices.Sort(missing)
	var unpaidNow []string
	for _, key := range missing {
		pkgPath, _, _ := strings.Cut(key, ".")
		if unpaid[key] == "" && unpaidPackages[pkgPath] == "" {
			unpaidNow = append(unpaidNow, key)
		}
	}
	if len(unpaidNow) > 0 {
		t.Errorf("%d exported names have no non-test caller; delete them or keep them in unpaid with what reads them:\n\t%s",
			len(unpaidNow), strings.Join(unpaidNow, "\n\t"))
	}
	for key := range unpaid {
		if !slices.Contains(missing, key) {
			t.Errorf("unpaid lists %s, which is gone or now has a caller", key)
		}
	}
}

// exportKey names obj as import path, receiver type (for a method) and
// name: "repro/internal/model.Simulator.Step".
func exportKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return obj.Name()
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Signature().Recv(); recv != nil {
			if named := namedOf(recv.Type()); named != nil {
				return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// namedOf returns the named type t is or points to, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named != nil {
		named = named.Origin()
	}
	return named
}
