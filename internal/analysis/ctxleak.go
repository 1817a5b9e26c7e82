package analysis

import (
	"go/ast"
	"go/types"
)

// Ctxleak polices the values the framework lends a callback for one
// delivery only. The pooled handler Context of the accept plan
// (core/accept_plan.go) is compiled per protocol and reused for every
// delivery under the current plan; a borrowed event (event/carrier.go) is
// recycled when its last delivery returns, and its Route with it; the
// message it carries is a relayed header its carrier owns or a received
// one lent with its frame (emunet.Frame.Decoded), recycled once the frame's
// last delivery returns. Retaining any of them beyond the call aliases a
// later delivery's value. The analyzer tracks every *core.Context
// parameter, the *event.Event parameter of a handler (a function that also
// binds a *core.Context) or of a callback handed to SubscribeContext,
// NewSniffer or Sniff, the event's Route and Msg, and their direct local
// aliases, and reports when one can outlive the call:
//
//   - stored into a struct field, map/slice element, or package-level var
//   - appended to a slice or placed in a composite literal
//   - sent on a channel or returned
//   - captured by a closure handed to a deferred executor (go statements,
//     Clock.AfterFunc, vclock.NewPeriodic, pool Submit, ScheduleAt)
//
// Using any of them within the call stays legal, a re-emission through Emit
// included, and so does keeping a copy (*ev, *ev.Route, ev.Msg.Clone()).
// The sanctioned idiom for timers is re-entry: schedule a closure that
// calls Protocol.RunLocked and receives a fresh context (see aodv/dymo
// retries).
var Ctxleak = &Analyzer{
	Name: "ctxleak",
	Doc: "forbid retaining the pooled *core.Context, a borrowed *event.Event or its Route or Msg " +
		"beyond the callback: no stores to fields/globals/containers, no returns or channel sends, " +
		"no capture by deferred closures; re-enter via Protocol.RunLocked, copy an event, clone a message to keep it",
	Run: runCtxleak,
}

// deferredExecutors name call targets whose function-literal arguments run
// after the current call returns.
var deferredExecutors = map[string]bool{
	"AfterFunc": true, "NewPeriodic": true, "Submit": true, "ScheduleAt": true,
}

// eventCallbackSinks name the calls whose callback argument receives a
// borrowed event: the context concentrator and the sniffers.
var eventCallbackSinks = map[string]bool{
	"SubscribeContext": true, "NewSniffer": true, "Sniff": true,
}

// lent describes one kind of value lent for a call, for diagnostics.
type lent struct {
	noun, remedy string
}

var (
	lentCtx   = &lent{"pooled *core.Context", "re-enter via Protocol.RunLocked instead"}
	lentEv    = &lent{"borrowed *event.Event", "copy it (*ev) to keep it"}
	lentRoute = &lent{"borrowed event's Route", "copy it (*ev.Route) to keep it"}
	lentMsg   = &lent{"lent event's Msg", "clone it (ev.Msg.Clone()) to keep it"}
)

// lentFields are the event fields lent with the event: what its carrier or
// its frame owns.
var lentFields = map[string]*lent{"Route": lentRoute, "Msg": lentMsg}

func runCtxleak(pass *Pass) error {
	lits, decls := eventCallbacks(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCtxFunc(pass, fd.Type, fd.Body, decls[pass.Info.Defs[fd.Name]])
			}
		}
		// Function literals at any depth get the same treatment.
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				checkCtxFunc(pass, lit.Type, lit.Body, lits[lit])
			}
			return true
		})
	}
	return nil
}

// eventCallbacks finds the callbacks handed to an eventCallbackSinks call:
// function literals, and functions or methods of this package passed by
// name.
func eventCallbacks(pass *Pass) (map[*ast.FuncLit]bool, map[types.Object]bool) {
	lits := map[*ast.FuncLit]bool{}
	decls := map[types.Object]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !eventCallbackSinks[calleeName(call)] {
				return true
			}
			for _, a := range call.Args {
				switch a := ast.Unparen(a).(type) {
				case *ast.FuncLit:
					lits[a] = true
				case *ast.Ident:
					decls[pass.Info.Uses[a]] = true
				case *ast.SelectorExpr:
					decls[pass.Info.Uses[a.Sel]] = true
				}
			}
			return true
		})
	}
	return lits, decls
}

// calleeName is the bare name a call targets: a function or a method.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

func isCoreContextPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && namedIn(p.Elem(), "core", "Context")
}

func isEventPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && namedIn(p.Elem(), "event", "Event")
}

// checkCtxFunc analyses one function whose signature binds lent values: its
// *core.Context parameters, and its *event.Event parameters when it binds a
// context too or is an event callback.
func checkCtxFunc(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt, callback bool) {
	tracked := map[types.Object]*lent{}
	var events []types.Object
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				obj := pass.Info.Defs[name]
				switch {
				case obj == nil:
				case isCoreContextPtr(obj.Type()):
					tracked[obj] = lentCtx
				case isEventPtr(obj.Type()):
					events = append(events, obj)
				}
			}
		}
	}
	if len(tracked) > 0 || callback {
		for _, obj := range events {
			tracked[obj] = lentEv
		}
	}
	if len(tracked) == 0 {
		return
	}
	// lentBy reports what e is lent as: a tracked identifier, or the Route
	// or Msg of a tracked event (its carrier or its frame owns those too).
	lentBy := func(e ast.Expr) *lent {
		e = ast.Unparen(e)
		if sel, ok := e.(*ast.SelectorExpr); ok && lentFields[sel.Sel.Name] != nil {
			if lentIdent(pass, tracked, sel.X) == lentEv {
				return lentFields[sel.Sel.Name]
			}
			return nil
		}
		return lentIdent(pass, tracked, e)
	}
	// One aliasing pass: `c := ctx` makes c tracked too.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			l := lentBy(rhs)
			if l == nil {
				continue
			}
			if lid, ok := as.Lhs[i].(*ast.Ident); ok {
				if def := pass.Info.Defs[lid]; def != nil {
					tracked[def] = l
				} else if use := pass.Info.Uses[lid]; use != nil && use.Parent() != nil && use.Parent() != pass.Pkg.Scope() {
					tracked[use] = l
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) {
					continue
				}
				l := lentBy(rhs)
				if l == nil {
					continue
				}
				switch lhs := s.Lhs[i].(type) {
				case *ast.SelectorExpr:
					pass.Reportf(s.Pos(), "%s stored into field %s: it is recycled after the call returns; %s", l.noun, lhs.Sel.Name, l.remedy)
				case *ast.IndexExpr:
					pass.Reportf(s.Pos(), "%s stored into a map/slice element outlives the call; %s", l.noun, l.remedy)
				case *ast.Ident:
					if obj := pass.Info.Uses[lhs]; obj != nil && obj.Parent() == pass.Pkg.Scope() {
						pass.Reportf(s.Pos(), "%s stored into package-level var %s outlives the call", l.noun, lhs.Name)
					}
				case *ast.StarExpr:
					pass.Reportf(s.Pos(), "%s stored through a pointer may outlive the call", l.noun)
				}
			}
		case *ast.SendStmt:
			if l := lentBy(s.Value); l != nil {
				pass.Reportf(s.Pos(), "%s sent on a channel outlives the call", l.noun)
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if l := lentBy(r); l != nil {
					pass.Reportf(s.Pos(), "%s returned from the handler escapes its delivery", l.noun)
				}
			}
		case *ast.CompositeLit:
			for _, el := range s.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if l := lentBy(v); l != nil {
					pass.Reportf(v.Pos(), "%s placed in a composite literal may outlive the call", l.noun)
				}
			}
		case *ast.CallExpr:
			if fun, ok := ast.Unparen(s.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" {
					for _, a := range s.Args[1:] {
						if l := lentBy(a); l != nil {
							pass.Reportf(a.Pos(), "%s appended to a slice outlives the call", l.noun)
						}
					}
					return true
				}
			}
			if name := calleeName(s); deferredExecutors[name] {
				reportCtxCapture(pass, s, tracked, name)
			}
		case *ast.GoStmt:
			reportCtxCapture(pass, s.Call, tracked, "a goroutine")
		}
		return true
	})
}

// lentIdent reports what e is lent as when it is a tracked identifier, or
// nil.
func lentIdent(pass *Pass, tracked map[types.Object]*lent, e ast.Expr) *lent {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return tracked[pass.Info.Uses[id]]
	}
	return nil
}

// reportCtxCapture flags closures capturing a tracked value when they are
// handed to a deferred executor (timers, periodics, worker pools,
// goroutines), and a tracked value passed to one directly.
func reportCtxCapture(pass *Pass, call *ast.CallExpr, tracked map[types.Object]*lent, where string) {
	exprs := append([]ast.Expr{call.Fun}, call.Args...)
	for _, a := range exprs {
		lit, ok := ast.Unparen(a).(*ast.FuncLit)
		if !ok {
			continue
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if l := tracked[pass.Info.Uses[id]]; l != nil {
					pass.Reportf(id.Pos(), "%s captured by a closure passed to %s runs after the call returns; %s", l.noun, where, l.remedy)
					return false
				}
			}
			return true
		})
	}
	for _, a := range call.Args {
		if l := lentIdent(pass, tracked, a); l != nil {
			pass.Reportf(a.Pos(), "%s passed to %s outlives the call", l.noun, where)
		}
	}
}
