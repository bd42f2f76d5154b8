package analysis_test

import (
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"mnoc/internal/analysis"
)

// loadGraphFixture loads the diamond fixture (top imports left and
// right, both import base) and builds the module over it.
func loadGraphFixture(t *testing.T) (*analysis.Module, []analysis.Diagnostic, []*analysis.Package) {
	t.Helper()
	loader := analysis.NewFixtureLoader(filepath.Join("testdata", "graph"))
	pkgs, err := loader.Load("base", "left", "right", "top")
	if err != nil {
		t.Fatalf("loading graph fixtures: %v", err)
	}
	mod, diags := analysis.BuildModule(pkgs)
	return mod, diags, pkgs
}

// lookupFunc resolves a package-level function of a fixture package.
func lookupFunc(t *testing.T, pkgs []*analysis.Package, pkgPath, name string) *types.Func {
	t.Helper()
	for _, pkg := range pkgs {
		if pkg.Path != pkgPath {
			continue
		}
		fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
		if !ok {
			t.Fatalf("%s.%s is not a function", pkgPath, name)
		}
		return fn
	}
	t.Fatalf("package %s not loaded", pkgPath)
	return nil
}

// TestFactsPropagateAcrossDiamond pins the interprocedural core: facts
// established in base flow to top through both diamond arms, through a
// method-value reference, and parameter facts flow through ArgFlow.
func TestFactsPropagateAcrossDiamond(t *testing.T) {
	mod, _, pkgs := loadGraphFixture(t)

	top := lookupFunc(t, pkgs, "top", "Top")
	facts := mod.FactsOf(top)
	if facts == nil {
		t.Fatal("no facts for top.Top")
	}
	if !facts.Spawns {
		t.Error("top.Top should inherit Spawns from base.Spawn via left.Via")
	}
	if !facts.WallClock {
		t.Error("top.Top should inherit WallClock from base.Tick via the right.Handle method value")
	}
	if !facts.MutatesParam[1] {
		t.Errorf("top.Top MutatesParam = %v, want p (index 1) mutated via writer -> base.Write", facts.MutatesParam)
	}

	// The single-hop relay must also carry the parameter fact.
	writer := lookupFunc(t, pkgs, "top", "writer")
	if f := mod.FactsOf(writer); f == nil || len(f.MutatesParam) != 1 || !f.MutatesParam[0] {
		t.Errorf("top.writer MutatesParam = %+v, want [true]", f)
	}

	// Handle itself carries WallClock purely through the method-value
	// edge to R.M — there is no call in its body.
	handle := lookupFunc(t, pkgs, "right", "Handle")
	if f := mod.FactsOf(handle); f == nil || !f.WallClock {
		t.Error("right.Handle should inherit WallClock along the r.M method-value edge")
	}
}

// TestHotReachability pins the root closure: everything top.Top
// reaches is attributed to it, and unreached functions are not.
func TestHotReachability(t *testing.T) {
	mod, _, pkgs := loadGraphFixture(t)

	roots := mod.HotRoots()
	if len(roots) != 1 || roots[0].Fn.FullName() != "top.Top" {
		t.Fatalf("HotRoots = %v, want exactly top.Top", roots)
	}
	for _, want := range []struct{ pkg, name string }{
		{"top", "Top"}, {"top", "writer"},
		{"left", "Via"}, {"right", "Also"}, {"right", "Handle"},
		{"base", "Spawn"}, {"base", "Tick"}, {"base", "Write"},
	} {
		fn := lookupFunc(t, pkgs, want.pkg, want.name)
		if got := mod.HotRootOf(fn); got != "top.Top" {
			t.Errorf("HotRootOf(%s.%s) = %q, want top.Top", want.pkg, want.name, got)
		}
	}
	lone := lookupFunc(t, pkgs, "left", "Lone")
	if got := mod.HotRootOf(lone); got != "" {
		t.Errorf("HotRootOf(left.Lone) = %q, want unreachable", got)
	}
}

// TestOrphanHotDirective pins the diagnostic for a hot marker that is
// not attached to a function declaration.
func TestOrphanHotDirective(t *testing.T) {
	_, diags, _ := loadGraphFixture(t)
	if len(diags) != 1 {
		t.Fatalf("BuildModule diagnostics = %v, want exactly the orphan hot directive", diags)
	}
	d := diags[0]
	if d.Analyzer != "mnoclint" || !strings.Contains(d.Message, "not attached to a function declaration") {
		t.Errorf("diagnostic = %s, want orphan hot directive report", d)
	}
	if filepath.Base(d.Pos.Filename) != "top.go" {
		t.Errorf("diagnostic file = %s, want top.go", d.Pos.Filename)
	}
}
