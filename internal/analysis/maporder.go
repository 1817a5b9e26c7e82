package analysis

import (
	"go/ast"
	"go/types"
)

// Maporder is a determinism-taint analyzer: Go randomizes map iteration
// order per process, so any map `range` whose order reaches a deterministic
// output — emitted telemetry events, trace spans, NDJSON encoders, replay
// fingerprint hashes, writer-directed formatting — silently breaks
// byte-identical replay. Two shapes are reported:
//
//  1. a sink call lexically inside a `range` over a map (each iteration
//     publishes/encodes in random order), and
//  2. map-order-tainted data passed to a sink: a slice built by appending
//     inside a map range, or returned by a function whose fact summary says
//     it returns map-order-tainted data — unless a sort.* / slices.* call
//     cleared the taint first.
//
// Sinks are matched directly (telemetry.Bus.Publish/PublishAt/Record,
// json.Encoder.Encode, io.Writer.Write — which covers hash.Hash — bufio
// writers, io.WriteString, fmt.Fprint*) and transitively through fact
// summaries, so a helper that forwards into a sink counts.
// Sorted iteration (collect keys, sort, then emit) passes by construction
// because the sink sits outside the map-range body and the sorted slice's
// taint is cleared.
var Maporder = &Analyzer{
	Name: "maporder",
	Doc: "forbid map iteration order from reaching deterministic outputs " +
		"(telemetry events, trace spans, NDJSON encoders, fingerprint hashes) " +
		"unless the iteration is sorted first",
	Run: runMaporder,
}

func runMaporder(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			node := pass.Facts.nodeOf(fd)
			if node == nil {
				continue
			}
			checkMaporder(pass, fd, node)
		}
	}
	return nil
}

func checkMaporder(pass *Pass, fd *ast.FuncDecl, node *funcNode) {
	// Locals carrying map-iteration order: appended to inside a map range, or
	// assigned from a callee that returns map-order-tainted data. A sort.* /
	// slices.* call on the variable clears the taint.
	tainted := map[types.Object]bool{}
	for obj := range node.taintedAppend {
		if !node.sortCleared[obj] {
			tainted[obj] = true
		}
	}
	for obj, ac := range node.assignedFrom {
		if node.sortCleared[obj] {
			continue
		}
		if gf, ok := pass.Facts.Of(ac.fn); ok && gf.MapOrdered {
			tainted[obj] = true
		}
	}

	for _, call := range node.calls {
		sinkDesc, isSink := sinkCall(call.fn)
		var chain string
		if !isSink {
			if gf, ok := pass.Facts.Of(call.fn); ok && gf.Sink != nil {
				isSink = true
				sinkDesc = gf.Sink[len(gf.Sink)-1]
				chain = chainString(shortFuncName(call.fn), gf.Sink)
			}
		}
		if !isSink {
			continue
		}
		// Shape 2: map-order-tainted data flowing into the sink's arguments.
		if src := taintedArg(pass, call.expr, tainted); src != "" {
			if chain != "" {
				pass.Reportf(call.pos,
					"%s passed to %s reaches %s (call chain: %s): data ordered by an unsorted map iteration breaks byte-identical replay; sort before emitting or annotate //mk:allow maporder <reason>",
					src, shortFuncName(call.fn), sinkDesc, chain)
			} else {
				pass.Reportf(call.pos,
					"%s passed to %s: data ordered by an unsorted map iteration breaks byte-identical replay; sort before emitting or annotate //mk:allow maporder <reason>",
					src, sinkDesc)
			}
			continue
		}
		// Shape 1: the sink call itself sits inside a map-range body, so the
		// order of the output stream is the (random) iteration order.
		if node.inMapRange(call.pos) {
			if chain != "" {
				pass.Reportf(call.pos,
					"call to %s inside range over map reaches %s (call chain: %s): per-iteration output order is the random map order and breaks byte-identical replay; collect and sort keys first or annotate //mk:allow maporder <reason>",
					shortFuncName(call.fn), sinkDesc, chain)
			} else {
				pass.Reportf(call.pos,
					"%s inside range over map: per-iteration output order is the random map order and breaks byte-identical replay; collect and sort keys first or annotate //mk:allow maporder <reason>",
					sinkDesc)
			}
		}
	}
}

// taintedArg scans a sink call's arguments for map-order-tainted data: a
// tainted local identifier, or a direct call to a function whose summary says
// it returns map-order-tainted data. Returns a display string for the
// diagnostic ("map-order-tainted keys" / "map-order-tainted result of
// olsr.unsortedKeys") — empty when clean.
func taintedArg(pass *Pass, call *ast.CallExpr, tainted map[types.Object]bool) string {
	if call == nil {
		return ""
	}
	for _, a := range call.Args {
		switch e := ast.Unparen(a).(type) {
		case *ast.Ident:
			if obj := pass.Info.Uses[e]; obj != nil && tainted[obj] {
				return "map-order-tainted " + e.Name
			}
		case *ast.CallExpr:
			if fn := funcOf(pass.Info, e); fn != nil {
				if gf, ok := pass.Facts.Of(fn); ok && gf.MapOrdered {
					return "map-order-tainted result of " + shortFuncName(fn)
				}
			}
		}
	}
	return ""
}
