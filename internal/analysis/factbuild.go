package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the interprocedural layer the transitive analyzers stand
// on: a module-local call graph plus per-function summaries ("may emit",
// "may sink into ordered output", "returns map-order-tainted data").
// Summaries are computed per package — seeded from the fact files of
// imported packages, closed over the package's own call graph by a monotone
// fixpoint — and exported through mkvet's VetxOutput so `go vet -vettool`
// propagates them across packages.
//
// A summary records an example call path down to the primitive operation, so
// a diagnostic at a call site can show the whole offending chain:
//
//	Env.Emit reached via notifyPeers -> broadcast -> (core.Env).Emit
//
// Suppression composes with propagation: a primitive site covered by an
// //mk:allow for the analyzer that owns the invariant class does not seed a
// fact, so an audited emit deep in a helper never taints its callers.

// primKind classifies a primitive operation that seeds a fact.
type primKind int

const (
	primEmit primKind = iota
	primSink
)

// primAnalyzer names the analyzer whose //mk:allow suppresses facts of each
// kind at their primitive site.
var primAnalyzer = map[primKind]string{
	primEmit: "lockemit",
	primSink: "maporder",
}

// primEvent is one primitive operation observed in a function body.
type primEvent struct {
	kind primKind
	desc string
}

// callSite is one statically resolved call in a function body. The call
// expression is retained so argument-level checks (maporder taint) can look
// inside without re-walking the file.
type callSite struct {
	pos  token.Pos
	fn   *types.Func
	expr *ast.CallExpr
}

// posSpan is a source region (used for map-range bodies).
type posSpan struct{ start, end token.Pos }

func (s posSpan) contains(p token.Pos) bool { return p >= s.start && p <= s.end }

// assignedCall records that a local variable was assigned the result of a
// direct call (x := f(...)); the maporder analyzer taints x when f's fact
// says it returns map-order-tainted data.
type assignedCall struct {
	fn  *types.Func
	pos token.Pos
}

// funcNode is one function's call-graph node with everything the analyzers
// need to report precisely at local positions.
type funcNode struct {
	fn     *types.Func
	decl   *ast.FuncDecl
	events []primEvent
	calls  []callSite

	// maporder bookkeeping.
	mapRanges     []posSpan
	taintedAppend map[types.Object]token.Pos
	assignedFrom  map[types.Object]assignedCall
	sortCleared   map[types.Object]bool
	returnedObjs  []types.Object
	returnedCalls []*types.Func
}

// Facts is the per-package interprocedural view handed to every analyzer:
// imported summaries from dependency fact files plus the fixpointed local
// summaries and raw call-graph nodes of the package under analysis.
type Facts struct {
	imported *FactSet
	local    map[string]FuncFact
	nodes    map[*ast.FuncDecl]*funcNode
	fset     *token.FileSet
	idx      *directiveIndex
}

// Of returns the summary for fn, preferring the local (current-package)
// fixpoint over imported facts.
func (fx *Facts) Of(fn *types.Func) (FuncFact, bool) {
	if fx == nil || fn == nil {
		return FuncFact{}, false
	}
	name := fn.FullName()
	if f, ok := fx.local[name]; ok {
		return f, true
	}
	return fx.imported.Lookup(name)
}

// nodeOf returns the call-graph node for a declaration (nil when the
// declaration has no body).
func (fx *Facts) nodeOf(fd *ast.FuncDecl) *funcNode {
	if fx == nil {
		return nil
	}
	return fx.nodes[fd]
}

// Exported returns the cumulative fact set to serialize for importers: the
// imported facts plus every local function with a non-empty summary.
func (fx *Facts) Exported() *FactSet {
	out := NewFactSet()
	if fx == nil {
		return out
	}
	out.Merge(fx.imported)
	for name, f := range fx.local {
		if !f.empty() {
			out.Funcs[name] = f
		}
	}
	return out
}

// shortFuncName renders fn for call-chain diagnostics: pkg.Func for plain
// functions, (pkg.Type).Method for methods.
func shortFuncName(fn *types.Func) string {
	if recv := recvNamed(fn); recv != nil {
		return fmt.Sprintf("(%s.%s).%s", pkgBase(recv.Obj().Pkg()), recv.Obj().Name(), fn.Name())
	}
	if fn.Pkg() != nil {
		return pkgBase(fn.Pkg()) + "." + fn.Name()
	}
	return fn.Name()
}

func pkgBase(pkg *types.Package) string {
	if pkg == nil {
		return ""
	}
	path := pkg.Path()
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// chainString renders a fact path for a diagnostic: "a -> b -> primitive".
func chainString(first string, path []string) string {
	out := first
	for _, step := range path {
		out += " -> " + step
	}
	return out
}

// buildFacts collects primitive events and call sites for every function in
// the package, then closes the summaries over the call graph.
func buildFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, idx *directiveIndex, imported *FactSet) *Facts {
	if imported == nil {
		imported = NewFactSet()
	}
	fx := &Facts{
		imported: imported,
		local:    map[string]FuncFact{},
		nodes:    map[*ast.FuncDecl]*funcNode{},
		fset:     fset,
		idx:      idx,
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			node := &funcNode{
				fn:            fn,
				decl:          fd,
				taintedAppend: map[types.Object]token.Pos{},
				assignedFrom:  map[types.Object]assignedCall{},
				sortCleared:   map[types.Object]bool{},
			}
			c := &collector{fset: fset, info: info, idx: idx, node: node}
			c.walk(fd.Body)
			fx.nodes[fd] = node
		}
	}
	fx.fixpoint()
	return fx
}

// seedFact returns the summary seeded from a node's own primitive events
// (first event of each kind wins — one example path suffices).
func seedFact(node *funcNode) FuncFact {
	var f FuncFact
	for _, ev := range node.events {
		switch ev.kind {
		case primEmit:
			if f.Emit == nil {
				f.Emit = []string{ev.desc}
			}
		case primSink:
			if f.Sink == nil {
				f.Sink = []string{ev.desc}
			}
		}
	}
	f.MapOrdered = node.returnsLocalTaint()
	return f
}

// returnsLocalTaint reports whether the function returns a slice built by
// appending inside an unsorted map iteration.
func (n *funcNode) returnsLocalTaint() bool {
	for _, obj := range n.returnedObjs {
		if _, tainted := n.taintedAppend[obj]; tainted && !n.sortCleared[obj] {
			return true
		}
	}
	return false
}

// fixpoint closes the local summaries over the call graph. Facts only turn
// on (a path, once set, is never replaced), so the iteration is monotone and
// terminates even on recursive call graphs. An //mk:allow at a call site
// (for the analyzer owning the invariant class) stops propagation through
// that edge: the caller audited the callee's behaviour, so the chain ends
// there instead of tainting everything above it.
func (fx *Facts) fixpoint() {
	for _, node := range fx.nodes {
		fx.local[node.fn.FullName()] = seedFact(node)
	}
	edgeAllowed := func(kind primKind, pos token.Pos) bool {
		return fx.idx != nil && fx.idx.allows(primAnalyzer[kind], fx.fset.Position(pos))
	}
	for changed := true; changed; {
		changed = false
		for _, node := range fx.nodes {
			name := node.fn.FullName()
			cur := fx.local[name]
			for _, call := range node.calls {
				cf, ok := fx.Of(call.fn)
				if !ok {
					continue
				}
				step := shortFuncName(call.fn)
				if cur.Emit == nil && cf.Emit != nil && !edgeAllowed(primEmit, call.pos) {
					cur.Emit = append([]string{step}, cf.Emit...)
					changed = true
				}
				if cur.Sink == nil && cf.Sink != nil && !edgeAllowed(primSink, call.pos) {
					cur.Sink = append([]string{step}, cf.Sink...)
					changed = true
				}
			}
			if !cur.MapOrdered {
				// Returned data derived from a callee that itself returns
				// map-order-tainted data stays tainted unless sorted.
				for _, g := range node.returnedCalls {
					if gf, ok := fx.Of(g); ok && gf.MapOrdered {
						cur.MapOrdered = true
						changed = true
						break
					}
				}
				if !cur.MapOrdered {
					for _, obj := range node.returnedObjs {
						ac, ok := node.assignedFrom[obj]
						if !ok || node.sortCleared[obj] {
							continue
						}
						if gf, ok := fx.Of(ac.fn); ok && gf.MapOrdered {
							cur.MapOrdered = true
							changed = true
							break
						}
					}
				}
			}
			fx.local[name] = cur
		}
	}
}

// --- primitive collection ---------------------------------------------------

// collector walks one function body gathering primitive events, resolved
// call sites and maporder bookkeeping. Function literals are attributed to
// the enclosing declaration (they usually run synchronously: sort closures,
// range callbacks); `go` statement literals are not — their bodies run on
// another goroutine.
type collector struct {
	fset *token.FileSet
	info *types.Info
	idx  *directiveIndex
	node *funcNode
}

// add records an event unless an //mk:allow for the owning analyzer covers
// the primitive site.
func (c *collector) add(kind primKind, pos token.Pos, desc string) {
	if c.idx != nil && c.idx.allows(primAnalyzer[kind], c.fset.Position(pos)) {
		return
	}
	c.node.events = append(c.node.events, primEvent{kind: kind, desc: desc})
}

// walk visits n and everything below it.
func (c *collector) walk(n ast.Node) {
	if n == nil {
		return
	}
	switch s := n.(type) {
	case *ast.GoStmt:
		// Arguments evaluate in this goroutine; the function body does not.
		for _, a := range s.Call.Args {
			if _, ok := ast.Unparen(a).(*ast.FuncLit); !ok {
				c.walk(a)
			}
		}
		return
	case *ast.RangeStmt:
		c.walk(s.X)
		if t := c.info.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Map); ok {
				c.node.mapRanges = append(c.node.mapRanges, posSpan{start: s.Body.Pos(), end: s.Body.End()})
			}
		}
		c.walk(s.Body)
		return
	case *ast.AssignStmt:
		c.collectAssign(s)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			switch e := ast.Unparen(r).(type) {
			case *ast.Ident:
				if obj := c.info.Uses[e]; obj != nil {
					c.node.returnedObjs = append(c.node.returnedObjs, obj)
				}
			case *ast.CallExpr:
				if fn := funcOf(c.info, e); fn != nil {
					c.node.returnedCalls = append(c.node.returnedCalls, fn)
				}
			}
		}
	case *ast.CallExpr:
		c.collectCall(s)
	}
	// Generic traversal for everything not fully handled above.
	for _, child := range childNodes(n) {
		c.walk(child)
	}
}

// collectAssign does the maporder taint bookkeeping for one assignment, then
// lets the generic walk descend.
func (c *collector) collectAssign(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, rhs := range s.Rhs {
		lhsIdent, ok := ast.Unparen(s.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		obj := c.info.Defs[lhsIdent]
		if obj == nil {
			obj = c.info.Uses[lhsIdent]
		}
		if obj == nil {
			continue
		}
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if fun, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := c.info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" {
				// Suppression composes with taint seeding too: an audited
				// append (e.g. followed by a manual insertion sort) does not
				// mark the slice map-ordered.
				if c.node.inMapRange(s.Pos()) &&
					!(c.idx != nil && c.idx.allows(primAnalyzer[primSink], c.fset.Position(s.Pos()))) {
					c.node.taintedAppend[obj] = s.Pos()
				}
				continue
			}
		}
		if fn := funcOf(c.info, call); fn != nil {
			c.node.assignedFrom[obj] = assignedCall{fn: fn, pos: s.Pos()}
		}
	}
}

// inMapRange reports whether pos falls inside a recorded map-range body
// (during collection, ranges are recorded before their bodies are walked).
func (n *funcNode) inMapRange(pos token.Pos) bool {
	for _, span := range n.mapRanges {
		if span.contains(pos) {
			return true
		}
	}
	return false
}

// collectCall records the resolved call site and classifies the callee
// against every primitive surface.
func (c *collector) collectCall(call *ast.CallExpr) {
	fn := funcOf(c.info, call)
	if fn == nil {
		return
	}
	c.node.calls = append(c.node.calls, callSite{pos: call.Pos(), fn: fn, expr: call})

	if desc, ok := emitEntry(fn); ok {
		c.add(primEmit, call.Pos(), desc)
	}
	if desc, ok := sinkCall(fn); ok {
		c.add(primSink, call.Pos(), desc)
	}
	// sort/slices calls clear maporder taint on their slice argument.
	if fn.Pkg() != nil && (fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices") && recvNamed(fn) == nil {
		for _, a := range call.Args {
			clearSortArg(c, a)
		}
	}
}

// clearSortArg untaints the identifier at the heart of a sort call argument
// (including one conversion layer, for sort.Sort(byName(keys))).
func clearSortArg(c *collector, arg ast.Expr) {
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		if obj := c.info.Uses[e]; obj != nil {
			c.node.sortCleared[obj] = true
		}
	case *ast.CallExpr:
		if len(e.Args) == 1 {
			clearSortArg(c, e.Args[0])
		}
	}
}

// emitEntry reports whether fn is on the banned emit/reconfigure surface
// (shared with lockemit's direct check).
func emitEntry(fn *types.Func) (string, bool) {
	recv := recvNamed(fn)
	if recv == nil || !pkgIs(recv.Obj().Pkg(), "core") {
		return "", false
	}
	if methods, ok := bannedWhileLocked[recv.Obj().Name()]; ok && methods[fn.Name()] {
		return shortFuncName(fn), true
	}
	return "", false
}

// sinkCall reports callees that feed order-sensitive deterministic outputs:
// telemetry publishes and span records, NDJSON/stream encoders, hashes and
// writer-directed formatting.
func sinkCall(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil {
		return "", false
	}
	recv := recvNamed(fn)
	if recv != nil {
		switch {
		case pkgIs(recv.Obj().Pkg(), "telemetry") && recv.Obj().Name() == "Bus" &&
			(fn.Name() == "Publish" || fn.Name() == "PublishAt" || fn.Name() == "Record"):
			return "(telemetry.Bus)." + fn.Name(), true
		case recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "encoding/json" &&
			recv.Obj().Name() == "Encoder" && fn.Name() == "Encode":
			return "(json.Encoder).Encode", true
		case recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "bufio" &&
			recv.Obj().Name() == "Writer" && (fn.Name() == "Write" || fn.Name() == "WriteString"):
			return "(bufio.Writer)." + fn.Name(), true
		case recv.Obj().Pkg() != nil && recv.Obj().Pkg().Path() == "io" &&
			recv.Obj().Name() == "Writer" && fn.Name() == "Write":
			// Interface method: covers hash.Hash too (it embeds io.Writer),
			// which makes fingerprint inputs a sink.
			return "io.Writer.Write", true
		}
		return "", false
	}
	switch pkg.Path() {
	case "io":
		if fn.Name() == "WriteString" {
			return "io.WriteString", true
		}
	case "fmt":
		switch fn.Name() {
		case "Fprintf", "Fprint", "Fprintln":
			return "fmt." + fn.Name(), true
		}
	}
	return "", false
}

// childNodes enumerates the direct children of n for the generic traversal
// arm of collector.walk.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(child ast.Node) bool {
		if first {
			first = false
			return true
		}
		if child != nil {
			out = append(out, child)
		}
		return false
	})
	return out
}
