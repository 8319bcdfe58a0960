// Package determinism implements the phasetune-lint analyzer that keeps
// the simulator and strategy packages a pure function of their inputs.
// The repo's central claim — engine sessions replay harness.RunOnline
// bit-for-bit at any worker count, DES runs reproduce from a seed —
// dies the moment wall-clock time, the global math/rand generator, or
// map iteration order leaks into an observable result. Each rule below
// encodes a bug class this project has already paid for in review time.
package determinism

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"phasetune/internal/lint/analysis"
)

// Name is the analyzer's registry and //lint:allow identifier.
const Name = "determinism"

// Analyzer flags, inside the simulation/strategy packages:
//
//   - wall-clock reads: time.Now, time.Since, time.Sleep, time.After,
//     time.Tick, time.NewTicker, time.NewTimer, time.AfterFunc — a
//     deterministic replay cannot depend on when it runs;
//   - the global math/rand generator (rand.Float64, rand.Intn, ...):
//     process-global state shared across goroutines is unseedable per
//     run and unreplayable; use stats.NewRNG(seed);
//   - rand.New whose source is not a literal rand.NewSource call, the
//     shape under which the seed provenance is auditable at the call
//     site;
//   - ranging over a map when the loop body leaks the iteration order
//     into an order-sensitive sink (append to an outer slice with no
//     subsequent sort, a channel send, or a Write/Push/Schedule/
//     Observe/Record/print call) — Go randomizes map order per
//     iteration, so the output differs run to run;
//   - importing phasetune/internal/obsv/wallclock, the module's only
//     sanctioned wall-clock read: simulation packages take telemetry as
//     an injected *obsv.Telemetry and must never construct the
//     wall-clocked bundle themselves.
//
// Legitimate wall-clock sites (HTTP server timeouts, CLI progress)
// carry a //lint:allow determinism <reason> annotation instead.
var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "forbid wall-clock, global rand, and order-leaking map iteration in simulation packages",
	Run:  run,
}

var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Sleep": true, "After": true,
	"Tick": true, "NewTicker": true, "NewTimer": true, "AfterFunc": true,
	"Until": true,
}

// orderSinks are method names through which a map-ordered value would
// reach an event queue, hash, stream or strategy. The DES scheduling
// calls are sinks because the event queue breaks time ties by insertion
// sequence.
var orderSinks = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Push": true, "Schedule": true, "Observe": true, "Record": true,
	"After": true, "AfterHandler": true,
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Encode": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		checkImports(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
			}
			return true
		})
	}
	return nil, nil
}

// checkImports flags imports of the wall-clock telemetry constructor:
// the one place the module reads time.Now for metrics must stay at the
// service layer, outside every simulation package.
func checkImports(pass *analysis.Pass, file *ast.File) {
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if path == "phasetune/internal/obsv/wallclock" ||
			strings.HasSuffix(path, "/internal/obsv/wallclock") {
			pass.Reportf(imp.Pos(),
				"import of the wall-clock telemetry package %s in a simulation package: accept an injected *obsv.Telemetry instead (wallclock.NewTelemetry is service-layer only)", path)
		}
	}
}

// pkgFunc resolves a call to a package-level function, returning its
// package path and name, or "" when the callee is not one (methods,
// locals, builtins).
func pkgFunc(pass *analysis.Pass, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", "" // method, e.g. (*rand.Rand).Float64 — fine
	}
	return fn.Pkg().Path(), fn.Name()
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	path, name := pkgFunc(pass, call)
	switch path {
	case "time":
		if wallClockFuncs[name] {
			pass.Reportf(call.Pos(),
				"wall-clock time.%s in a simulation package: results must be a pure function of inputs (inject the DES clock, or //lint:allow determinism <reason> for diagnostics)", name)
		}
	case "math/rand", "math/rand/v2":
		switch name {
		case "New":
			if !seededSource(pass, call) {
				pass.Reportf(call.Pos(),
					"rand.New without a literal rand.NewSource(seed): seed provenance must be auditable at the call site (use stats.NewRNG)")
			}
		case "NewSource":
			// Fine on its own; the seed expression is what matters, and
			// wall-clock seeds are caught by the time rule above.
		default:
			pass.Reportf(call.Pos(),
				"global math/rand.%s: process-global generator state is unreplayable; thread a seeded *stats.RNG instead", name)
		}
	}
}

// seededSource reports whether the single argument of rand.New is a
// direct rand.NewSource / rand.NewPCG / rand.NewChaCha8 call.
func seededSource(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	inner, ok := call.Args[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	path, name := pkgFunc(pass, inner)
	if path != "math/rand" && path != "math/rand/v2" {
		return false
	}
	switch name {
	case "NewSource", "NewPCG", "NewChaCha8":
		return true
	}
	return false
}

// isSortCall recognizes order-restoring calls: anything from package
// sort or slices, plus local helpers whose name mentions "sort"
// (insertionSortInts and friends).
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	if path, _ := pkgFunc(pass, call); path == "sort" || path == "slices" {
		return true
	}
	var name string
	switch f := call.Fun.(type) {
	case *ast.Ident:
		name = f.Name
	case *ast.SelectorExpr:
		name = f.Sel.Name
	default:
		return false
	}
	return strings.Contains(strings.ToLower(name), "sort")
}

// checkMapRange flags `for ... := range m` over a map whose body leaks
// iteration order into an order-sensitive sink.
func checkMapRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	t := pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside map iteration: receiver observes Go's randomized map order")
			return true
		case *ast.CallExpr:
			if name, sink := sinkCall(pass, n); sink {
				pass.Reportf(n.Pos(),
					"%s inside map iteration leaks randomized map order; collect keys, sort, then emit", name)
			}
			if isAppendToOuter(pass, n, rng) && !sortedAfter(pass, file, rng, n) {
				pass.Reportf(n.Pos(),
					"append to an outer slice inside map iteration without a subsequent sort: element order is randomized per run")
			}
		}
		return true
	})
}

// sinkCall reports whether call is a method or fmt call named like an
// order-sensitive sink.
func sinkCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if !orderSinks[name] {
		return "", false
	}
	// Either a method on anything (event queue, hash, writer, strategy)
	// or a fmt.* package function.
	if s, ok := pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.MethodVal {
		return "call to method " + name, true
	}
	if path, fname := pkgFunc(pass, call); path == "fmt" && fname == name {
		return "fmt." + name, true
	}
	return "", false
}

// isAppendToOuter reports whether call is `append(x, ...)` assigned to
// a variable declared outside the range statement.
func isAppendToOuter(pass *analysis.Pass, call *ast.CallExpr, rng *ast.RangeStmt) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
			return false
		}
	}
	if len(call.Args) == 0 {
		return false
	}
	target, ok := call.Args[0].(*ast.Ident)
	if !ok {
		// appends to fields (s.out) conservatively count as outer
		_, isSel := call.Args[0].(*ast.SelectorExpr)
		return isSel
	}
	obj := pass.TypesInfo.Uses[target]
	if obj == nil {
		return false
	}
	// Declared inside the loop body -> purely local, order irrelevant.
	return obj.Pos() < rng.Pos() || obj.Pos() >= rng.End()
}

// sortedAfter reports whether the statement list containing rng sorts
// the appended-to variable after the loop (the canonical map-iteration
// fix: collect, sort, use).
func sortedAfter(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt, appendCall *ast.CallExpr) bool {
	var targetObj types.Object
	if id, ok := appendCall.Args[0].(*ast.Ident); ok {
		targetObj = pass.TypesInfo.Uses[id]
	}

	fn := analysis.EnclosingFunc(file, rng.Pos())
	if fn == nil {
		return false
	}
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	}
	if body == nil {
		return false
	}
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if !isSortCall(pass, call) || len(call.Args) < 1 {
			return true
		}
		if targetObj == nil {
			sorted = true // append was to a field; any later sort counts
			return false
		}
		arg := call.Args[0]
		if un, ok := arg.(*ast.UnaryExpr); ok {
			arg = un.X // sortHelper(&keys)
		}
		if id, ok := arg.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == targetObj {
			sorted = true
			return false
		}
		return true
	})
	return sorted
}
