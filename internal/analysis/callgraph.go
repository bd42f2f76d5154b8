package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Module is the interprocedural view of one lint run: every loaded
// package, a call graph over their declared functions, and per-function
// facts propagated across package boundaries (facts.go). Analyzers
// reach it through Pass.Module; per-package analyzers can ignore it.
type Module struct {
	Packages []*Package

	nodes map[*types.Func]*FuncNode
	// hotRootOf maps every function reachable from a //mnoclint:hot
	// root to the (lexicographically first) root's full name.
	hotRootOf map[*types.Func]string
}

// FuncNode is one declared function or method of the module.
type FuncNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Hot marks a //mnoclint:hot root directive on the declaration.
	Hot bool
	// Edges are the node's outgoing static call and reference edges.
	// Bodies of nested function literals (including `go func` bodies)
	// are attributed to the enclosing declaration.
	Edges []Edge
	// Facts are the function's propagated facts (facts.go).
	Facts Facts

	// paramIndex maps the receiver (index 0 for methods) and parameters
	// to their fact index; see Facts.MutatesParam.
	paramIndex map[types.Object]int
	nparams    int
}

// Edge is one outgoing reference from a function: a static call, or a
// method/function value mention (the callee may run later, so facts
// still flow along it).
type Edge struct {
	Callee *types.Func
	Site   token.Pos
	// MethodValue marks a reference without a call (x.M or f passed as
	// a value). ArgFlow is empty on such edges.
	MethodValue bool
	// ArgFlow maps callee fact-parameter index (receiver first for
	// methods) to the caller's fact-parameter index feeding it, or -1
	// when the argument is not a caller parameter. Variadic arguments
	// all map onto the variadic parameter's index.
	ArgFlow []int
}

// Node returns fn's graph node, or nil when fn was not declared in a
// loaded package (standard library, interface methods).
func (m *Module) Node(fn *types.Func) *FuncNode {
	if m == nil || fn == nil {
		return nil
	}
	return m.nodes[fn]
}

// FactsOf returns fn's propagated facts, or nil for functions outside
// the module (callers must treat nil as "nothing known").
func (m *Module) FactsOf(fn *types.Func) *Facts {
	if n := m.Node(fn); n != nil {
		return &n.Facts
	}
	return nil
}

// HotRootOf returns the full name of the //mnoclint:hot root fn is
// reachable from, or "" when fn is not on a hot path.
func (m *Module) HotRootOf(fn *types.Func) string {
	if m == nil {
		return ""
	}
	return m.hotRootOf[fn]
}

// HotRoots returns the module's hot-marked functions sorted by name.
func (m *Module) HotRoots() []*FuncNode {
	var roots []*FuncNode
	for _, n := range m.nodes {
		if n.Hot {
			roots = append(roots, n)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		return roots[i].Fn.FullName() < roots[j].Fn.FullName()
	})
	return roots
}

// BuildModule constructs the call graph and propagates facts. The
// returned diagnostics report malformed //mnoclint:hot directives
// (ones not attached to a function declaration).
func BuildModule(pkgs []*Package) (*Module, []Diagnostic) {
	m := &Module{
		Packages:  pkgs,
		nodes:     map[*types.Func]*FuncNode{},
		hotRootOf: map[*types.Func]string{},
	}
	var diags []Diagnostic

	// Pass 1: nodes, hot marks.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			hotLines := hotDirectiveLines(pkg.Fset, f)
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Fn: fn, Decl: fd, Pkg: pkg}
				n.buildParamIndex()
				declLine := pkg.Fset.Position(fd.Pos()).Line
				docLine := declLine
				if fd.Doc != nil {
					docLine = pkg.Fset.Position(fd.Doc.Pos()).Line
				}
				for line := range hotLines {
					if line < declLine && line >= docLine-1 {
						n.Hot = true
						delete(hotLines, line)
					}
				}
				m.nodes[fn] = n
			}
			// Hot directives that matched no declaration are mistakes:
			// a misplaced root silently un-guards its hot path.
			var orphan []token.Pos
			for _, pos := range hotLines {
				orphan = append(orphan, pos)
			}
			sort.Slice(orphan, func(i, j int) bool { return orphan[i] < orphan[j] })
			for _, pos := range orphan {
				diags = append(diags, Diagnostic{
					Pos:      pkg.Fset.Position(pos),
					Analyzer: directiveAnalyzer,
					Message:  "hot directive is not attached to a function declaration (put //mnoclint:hot in the doc comment of the root function)",
				})
			}
		}
	}

	// Pass 2: edges and local facts.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if n := m.nodes[fn]; n != nil {
					n.collect(pkg.Info)
				}
			}
		}
	}

	m.propagateFacts()
	m.markHotReachable()
	return m, diags
}

// hotDirectiveLines returns line -> pos of every //mnoclint:hot
// comment in f. Directive validation happens against the declarations
// (BuildModule); the suppression parser ignores the hot verb.
func hotDirectiveLines(fset *token.FileSet, f *ast.File) map[int]token.Pos {
	lines := map[int]token.Pos{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if isHotDirective(c.Text) {
				lines[fset.Position(c.Pos()).Line] = c.Pos()
			}
		}
	}
	return lines
}

// buildParamIndex assigns fact indexes: receiver first (methods), then
// the declared parameters in order.
func (n *FuncNode) buildParamIndex() {
	n.paramIndex = map[types.Object]int{}
	sig, ok := n.Fn.Type().(*types.Signature)
	if !ok {
		return
	}
	idx := 0
	if recv := sig.Recv(); recv != nil {
		n.paramIndex[recv] = idx
		idx++
	}
	for i := 0; i < sig.Params().Len(); i++ {
		n.paramIndex[sig.Params().At(i)] = idx
		idx++
	}
	n.nparams = idx
}

// collect walks the declaration body (nested function literals
// included) recording outgoing edges and local facts.
func (n *FuncNode) collect(info *types.Info) {
	n.Facts.MutatesParam = make([]bool, n.nparams)

	// consumed tracks call-Fun expressions (and their Sel identifiers)
	// so they are not re-counted as value references when the walk
	// descends into them.
	consumed := map[ast.Expr]bool{}
	consume := func(expr ast.Expr) {
		expr = ast.Unparen(expr)
		consumed[expr] = true
		if sel, ok := expr.(*ast.SelectorExpr); ok {
			consumed[sel.Sel] = true
		}
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.CallExpr:
			consume(node.Fun)
			n.addCallEdge(info, node)
			n.localCallFacts(info, node)
		case *ast.GoStmt:
			n.Facts.Spawns = true
		case *ast.SelectStmt:
			if selectHasReceive(node) {
				n.Facts.CancelAware = true
			}
		case *ast.UnaryExpr:
			if node.Op == token.ARROW {
				n.Facts.CancelAware = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[node.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					n.Facts.CancelAware = true
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[node]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					n.Facts.Allocates = true
				}
			}
		case *ast.AssignStmt:
			n.localAssignFacts(info, node)
		case *ast.IncDecStmt:
			if i := n.factIndexOfBase(info, node.X); i >= 0 && !isPlainIdent(node.X) {
				n.Facts.MutatesParam[i] = true
			}
		case *ast.SelectorExpr:
			if !consumed[node] {
				consume(node)
				n.addValueEdge(info, node)
			}
		case *ast.Ident:
			if !consumed[node] {
				n.addValueEdge(info, node)
			}
		}
		return true
	})
}

// addCallEdge records a static call edge with its argument flow.
func (n *FuncNode) addCallEdge(info *types.Info, call *ast.CallExpr) {
	callee := CalleeFunc(info, call)
	if callee == nil {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	nCallee := 0
	if sig.Recv() != nil {
		nCallee++
	}
	nCallee += sig.Params().Len()
	flow := make([]int, nCallee)
	for i := range flow {
		flow[i] = -1
	}
	slot := 0
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			flow[0] = n.factIndex(info, sel.X)
		}
		slot = 1
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len()-1 {
			pi = sig.Params().Len() - 1
		}
		if pi >= sig.Params().Len() {
			break
		}
		flow[slot+pi] = n.factIndex(info, arg)
	}
	n.Edges = append(n.Edges, Edge{Callee: callee, Site: call.Pos(), ArgFlow: flow})
}

// addValueEdge records a method-value or function-value reference —
// x.M or f mentioned without being called. The callee may be invoked
// later through the value, so boolean facts must flow along the edge.
func (n *FuncNode) addValueEdge(info *types.Info, expr ast.Expr) {
	var obj types.Object
	switch expr := expr.(type) {
	case *ast.Ident:
		obj = info.Uses[expr]
	case *ast.SelectorExpr:
		obj = info.Uses[expr.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn == n.Fn {
		return
	}
	n.Edges = append(n.Edges, Edge{Callee: fn, Site: expr.Pos(), MethodValue: true})
}

// localCallFacts records the facts a call establishes directly.
func (n *FuncNode) localCallFacts(info *types.Info, call *ast.CallExpr) {
	fn := CalleeFunc(info, call)
	if fn == nil {
		// A dynamic call (through a function value) that receives a
		// context delegates cancellation to whatever runs: the spawner
		// cannot see further, so treat it as cancel-aware.
		for _, arg := range call.Args {
			if tv, ok := info.Types[arg]; ok && IsContextType(tv.Type) {
				n.Facts.CancelAware = true
			}
		}
		return
	}
	if fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			n.Facts.WallClock = true
		}
	case "fmt":
		if fn.Name() == "Sprintf" {
			n.Facts.Allocates = true
		}
	case "context":
		// ctx.Err()/ctx.Done() polled outside a select still observe
		// cancellation.
		if fn.Name() == "Err" || fn.Name() == "Done" {
			n.Facts.CancelAware = true
		}
	}
	if IsContextMethod(fn, "Err") || IsContextMethod(fn, "Done") {
		n.Facts.CancelAware = true
	}
}

// localAssignFacts records parameter mutations visible in one
// assignment.
func (n *FuncNode) localAssignFacts(info *types.Info, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		// A write through a parameter (p.f = x, *p = x, p[i] = x)
		// mutates what the caller passed; rebinding the local copy
		// (p = x) does not.
		if isPlainIdent(lhs) {
			continue
		}
		if i := n.factIndexOfBase(info, lhs); i >= 0 {
			n.Facts.MutatesParam[i] = true
		}
	}
}

// factIndex resolves expr to a fact-parameter index of n: the bare
// parameter, or the parameter behind &p / *p / parens.
func (n *FuncNode) factIndex(info *types.Info, expr ast.Expr) int {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return n.factIndex(info, e.X)
		}
	case *ast.StarExpr:
		return n.factIndex(info, e.X)
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			if i, ok := n.paramIndex[obj]; ok {
				return i
			}
		}
	}
	return -1
}

// factIndexOfBase resolves the root identifier of a selector/index/
// dereference chain to a fact-parameter index.
func (n *FuncNode) factIndexOfBase(info *types.Info, expr ast.Expr) int {
	return n.factIndex(info, BaseIdentExpr(expr))
}

// isPlainIdent reports whether expr is a bare identifier.
func isPlainIdent(expr ast.Expr) bool {
	_, ok := ast.Unparen(expr).(*ast.Ident)
	return ok
}

// selectHasReceive reports whether any select case receives.
func selectHasReceive(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			if u, ok := comm.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				return true
			}
		case *ast.AssignStmt:
			for _, rhs := range comm.Rhs {
				if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					return true
				}
			}
		}
	}
	return false
}

// markHotReachable computes the forward closure of every hot root,
// attributing each reached function to the lexicographically first
// root that reaches it.
func (m *Module) markHotReachable() {
	for _, root := range m.HotRoots() {
		name := root.Fn.FullName()
		work := []*FuncNode{root}
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			if _, seen := m.hotRootOf[n.Fn]; seen {
				continue
			}
			m.hotRootOf[n.Fn] = name
			for _, e := range n.Edges {
				if next := m.nodes[e.Callee]; next != nil {
					if _, seen := m.hotRootOf[next.Fn]; !seen {
						work = append(work, next)
					}
				}
			}
		}
	}
}

// --- shared type helpers for the interprocedural analyzers ---

// IsContextType reports whether t is context.Context (or an identical
// named interface from a fixture's context stand-in package).
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && PackageMatches(obj.Pkg(), "context")
}

// IsContextMethod reports whether fn is the method name on
// context.Context (matched through the receiver or interface).
func IsContextMethod(fn *types.Func, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return IsContextType(sig.Recv().Type())
}

// BaseIdentExpr unwraps selector/index/slice/star/paren/unary chains
// to the root expression (usually an identifier).
func BaseIdentExpr(expr ast.Expr) ast.Expr {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X
		case *ast.TypeAssertExpr:
			expr = e.X
		default:
			return expr
		}
	}
}

// BaseIdentObj resolves the root identifier of expr to its object, or
// nil when the root is not a resolved identifier.
func BaseIdentObj(info *types.Info, expr ast.Expr) types.Object {
	id, ok := BaseIdentExpr(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
