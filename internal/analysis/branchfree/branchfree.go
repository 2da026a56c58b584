// Package branchfree enforces the //ba:branch-free contract: inside a
// marked region no data-dependent branch may appear. The paper's entire
// speedup comes from hot loops whose per-element work is a load, a
// compare, and a conditional move; one if statement (or a short-circuit
// operator, which compiles to a branch) silently reverts a kernel to
// the branch-based form while every test keeps passing — the regression
// is invisible except to perf. This analyzer makes it a build break.
//
// Flagged inside a marked region:
//
//   - if / switch / type-switch / select statements
//   - short-circuit && and || (each compiles to a conditional jump)
//   - range over a map (runtime iterator calls, unpredictable order)
//   - calls to functions that are not themselves branch-free: anything
//     except the mask-primitive packages (bagraph/internal/core,
//     math/bits), a same-package function
//     itself marked //ba:branch-free, or the handful of branchless
//     builtins (len, cap, min, max, real, imag, complex)
//
// min and max on integer operands lower to conditional moves, not
// branches, which is exactly the transformation the kernels hand-build;
// they are allowed so future code can use them where the compiler
// cooperates. A sanctioned branch (the bottom-up probe's early exit)
// carries //ba:allow-branch with its justification.
//
// branchfree is also the suite's directive grammarian: malformed //ba:*
// comments anywhere in the package are reported here (and only here, so
// the suite does not repeat itself five times per typo).
package branchfree

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bagraph/internal/analysis"
	"bagraph/internal/analysis/directive"
)

// Analyzer is the branchfree check.
var Analyzer = &analysis.Analyzer{
	Name: "branchfree",
	Doc:  "reject data-dependent branches inside //ba:branch-free regions",
	Run:  run,
}

// intrinsics are the callee packages whose exported functions are
// branch-free by construction: the repo's own mask primitives and the
// stdlib bit-twiddling package (whose functions compile to single
// instructions).
var intrinsics = map[string]bool{
	"bagraph/internal/core": true,
	"math/bits":             true,
}

// branchlessBuiltins are builtins that cannot introduce a branch or an
// allocation: pure length/arithmetic forms. Integer min/max lower to
// conditional moves — the very transformation the kernels hand-build.
var branchlessBuiltins = map[string]bool{
	"len": true, "cap": true, "min": true, "max": true,
	"real": true, "imag": true, "complex": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	info := directive.Parse(pass)
	for _, bad := range info.Errors {
		pass.Reportf(bad.Pos, "%s", bad.Message)
	}

	// Same-package functions marked branch-free are callable from any
	// marked region.
	marked := make(map[*types.Func]bool)
	for _, r := range info.Regions {
		if r.Name != directive.BranchFree {
			continue
		}
		if fd, ok := r.Node.(*ast.FuncDecl); ok {
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				marked[fn] = true
			}
		}
	}

	for _, r := range info.Regions {
		if r.Name != directive.BranchFree {
			continue
		}
		body := r.RegionBody()
		if body == nil {
			continue
		}
		check(pass, info, marked, r, body)
	}
	return nil, nil
}

// check walks one marked region's subtree and reports every construct
// the contract forbids.
func check(pass *analysis.Pass, info directive.Info, marked map[*types.Func]bool, r directive.Region, body ast.Node) {
	allowed := func(pos token.Pos) bool {
		return info.Escaped(directive.AllowBranch, pos)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if !allowed(n.Pos()) {
				pass.Reportf(n.Pos(), "if statement in //ba:branch-free region (marked at %s)", pass.Fset.Position(r.Pos))
			}
		case *ast.SwitchStmt:
			if !allowed(n.Pos()) {
				pass.Reportf(n.Pos(), "switch statement in //ba:branch-free region (marked at %s)", pass.Fset.Position(r.Pos))
			}
		case *ast.TypeSwitchStmt:
			if !allowed(n.Pos()) {
				pass.Reportf(n.Pos(), "type switch in //ba:branch-free region (marked at %s)", pass.Fset.Position(r.Pos))
			}
		case *ast.SelectStmt:
			if !allowed(n.Pos()) {
				pass.Reportf(n.Pos(), "select statement in //ba:branch-free region (marked at %s)", pass.Fset.Position(r.Pos))
			}
		case *ast.BinaryExpr:
			if (n.Op == token.LAND || n.Op == token.LOR) && !allowed(n.Pos()) {
				pass.Reportf(n.OpPos, "short-circuit %s in //ba:branch-free region (marked at %s)", n.Op, pass.Fset.Position(r.Pos))
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !allowed(n.Pos()) {
					pass.Reportf(n.Pos(), "map iteration in //ba:branch-free region (marked at %s)", pass.Fset.Position(r.Pos))
				}
			}
		case *ast.CallExpr:
			if allowed(n.Pos()) {
				return true
			}
			if analysis.IsConversion(pass.TypesInfo, n) {
				return true
			}
			if b := analysis.BuiltinName(pass.TypesInfo, n); b != "" {
				if !branchlessBuiltins[b] {
					pass.Reportf(n.Pos(), "call to builtin %s in //ba:branch-free region (marked at %s)", b, pass.Fset.Position(r.Pos))
				}
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, n)
			if fn == nil {
				pass.Reportf(n.Pos(), "call through a function value in //ba:branch-free region (marked at %s): the analyzer cannot prove the callee branch-free", pass.Fset.Position(r.Pos))
				return true
			}
			if intrinsic(fn) || marked[fn] {
				return true
			}
			pass.Reportf(n.Pos(), "call to %s in //ba:branch-free region (marked at %s): not an intrinsic and not itself marked //ba:branch-free", fn.FullName(), pass.Fset.Position(r.Pos))
		}
		return true
	})
}

// intrinsic reports whether fn belongs to the branch-free callee
// allowlist.
func intrinsic(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false // error.Error and friends
	}
	return intrinsics[strings.TrimSuffix(pkg.Path(), "_test")]
}
