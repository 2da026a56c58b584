// Package barrierctx enforces the PR 4 cancellation design in the
// kernel packages: a context is observed at pass barriers only, and
// through ctx.Err() alone.
//
// For the four engine kernels the poll site is a single call:
// par.Exec.Pass checks Ctx.Err() once before it dispatches a pass, and
// the kernels themselves hold no context to poll. The analyzer keeps
// that true (a kernel that grew its own check inside a pass would trip
// the rules below) and governs the sequential kernels, which poll at the
// top of their own pass loops.
//
// The contract has two halves. Workers and inner loops never see the
// context — that is what keeps the per-element loops free of the
// synchronized channel read ctx.Done() implies and of per-element
// polling overhead; cancellation granularity is one pass. And the
// observation is always Err(), never Done(): Done() allocates the done
// channel on first use and invites select-shaped code into kernels,
// and the repo's barrier-exact cancellation tests drive Err-only fuse
// contexts that Done() would not trip.
//
// In the kernel packages (internal/cc, internal/bfs, internal/sssp,
// internal/par) the analyzer flags:
//
//   - any ctx.Done() call — the Err-only contract, no escape;
//   - ctx.Err() inside a marked //ba:branch-free or //ba:atomic-free
//     region — the hot loops themselves, no escape;
//   - ctx.Err() at loop depth >= 2 within a function (function literals
//     reset the depth: a barrier helper closure polls at its top, depth
//     0). The outermost loop of a kernel is its pass loop and may poll;
//     anything deeper is per-vertex or per-arc territory. No escape: an
//     inner barrier (multisource's per-level sweep inside its wave loop)
//     polls through Exec.Pass like every other pass.
package barrierctx

import (
	"go/ast"
	"go/types"
	"strings"

	"bagraph/internal/analysis"
	"bagraph/internal/analysis/directive"
)

// Analyzer is the barrierctx check.
var Analyzer = &analysis.Analyzer{
	Name: "barrierctx",
	Doc:  "restrict context observation in kernel packages to pass barriers, via ctx.Err() only",
	Run:  run,
}

// kernelPackages are the package paths the contract governs.
var kernelPackages = map[string]bool{
	"bagraph/internal/cc":   true,
	"bagraph/internal/bfs":  true,
	"bagraph/internal/sssp": true,
	"bagraph/internal/par":  true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !kernelPackages[strings.TrimSuffix(pass.Pkg.Path(), "_test")] {
		return nil, nil
	}
	info := directive.Parse(pass)

	inMarkedRegion := func(pos ast.Node) bool {
		for _, r := range info.Regions {
			body := r.RegionBody()
			if body != nil && body.Pos() <= pos.Pos() && pos.Pos() < body.End() {
				return true
			}
		}
		return false
	}

	for _, f := range pass.Files {
		// Walk with explicit loop depth; function literals reset it.
		var walk func(n ast.Node, depth int)
		walk = func(n ast.Node, depth int) {
			ast.Inspect(n, func(m ast.Node) bool {
				if m == nil || m == n {
					return m == n
				}
				switch m := m.(type) {
				case *ast.FuncLit:
					walk(m.Body, 0)
					return false
				case *ast.ForStmt:
					if m.Init != nil {
						walk(m.Init, depth)
					}
					if m.Cond != nil {
						walk(m.Cond, depth)
					}
					if m.Post != nil {
						walk(m.Post, depth)
					}
					walk(m.Body, depth+1)
					return false
				case *ast.RangeStmt:
					walk(m.X, depth)
					walk(m.Body, depth+1)
					return false
				case *ast.CallExpr:
					checkCall(pass, m, depth, inMarkedRegion)
				}
				return true
			})
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				walk(fd.Body, 0)
			}
		}
	}
	return nil, nil
}

// checkCall flags one ctx.Err()/ctx.Done() call that breaks the
// contract.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, depth int, inMarked func(ast.Node) bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if name != "Err" && name != "Done" {
		return
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || !isContext(tv.Type) {
		return
	}
	switch name {
	case "Done":
		pass.Reportf(call.Pos(), "ctx.Done() in a kernel package: cancellation is observed through ctx.Err() at pass barriers only (PR 4 contract; Done() allocates and invites per-element selects)")
	case "Err":
		if inMarked(call) {
			pass.Reportf(call.Pos(), "ctx.Err() inside a //ba: marked region: workers and branch-avoiding loops never observe the context; poll at the pass barrier instead")
			return
		}
		if depth >= 2 {
			pass.Reportf(call.Pos(), "ctx.Err() at loop depth %d: kernels observe cancellation at pass barriers only (the outermost loop); an inner barrier polls through par.Exec.Pass", depth)
		}
	}
}

// isContext reports whether t is context.Context.
func isContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
