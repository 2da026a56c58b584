// Package maskdomain enforces the operand domain of the 64-bit mask
// primitives. core.MaskLess64 computes its mask from a signed
// subtraction — uint64((int64(a) - int64(b)) >> 63) — which is only
// correct while the subtraction cannot overflow, i.e. for operands
// <= 2^62 (the documented contract; distances are capped by
// core.MaxDist64 and the Inf sentinel is exactly 2^62). Feed it
// ^uint64(0) as a "disabled" threshold and every comparison against it
// silently inverts: a disabled cut above every uint32 weight has to be
// a value like 2^33, not MaxUint64.
//
// For every call to a domain-limited primitive (MaskLess64,
// MaskGreater64, Min64) the analyzer flags:
//
//   - a constant argument whose value exceeds 2^62 — the caller is
//     planting a comparison that will misevaluate;
//   - an argument converted to uint64 from a type the domain cannot
//     contain: the 64-bit integer types (a negative int/int64 wraps
//     past 2^63; a uint64/uintptr is unbounded) and the floats. A
//     conversion from uint8/16/32 is provably in domain and passes.
//
// Arguments that are plain uint64 expressions are the caller's proof
// obligation (distances stay under MaxDist64 by construction) and pass
// unexamined; a call the analyzer cannot see into but the author has
// proven can carry //ba:allow-mask <reason>.
package maskdomain

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"bagraph/internal/analysis"
	"bagraph/internal/analysis/directive"
)

// Analyzer is the maskdomain check.
var Analyzer = &analysis.Analyzer{
	Name: "maskdomain",
	Doc:  "reject core.MaskLess64-family operands provably outside the 2^62 mask domain",
	Run:  run,
}

// corePath is the package that owns the mask primitives.
const corePath = "bagraph/internal/core"

// domainLimited are the primitives whose documented contract is
// "operands <= 2^62". (MaskEqual64, Select64, and Bit64 are total.)
var domainLimited = map[string]bool{
	"MaskLess64":    true,
	"MaskGreater64": true,
	"Min64":         true,
}

// maxDomain is the largest operand the primitives accept: 2^62.
const maxDomain = uint64(1) << 62

func run(pass *analysis.Pass) (interface{}, error) {
	info := directive.Parse(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if strings.TrimSuffix(fn.Pkg().Path(), "_test") != corePath || !domainLimited[fn.Name()] {
				return true
			}
			if info.Escaped(directive.AllowMask, call.Pos()) {
				return true
			}
			for _, arg := range call.Args {
				checkArg(pass, fn.Name(), arg)
			}
			return true
		})
	}
	return nil, nil
}

// checkArg flags one argument of a domain-limited call when it provably
// exceeds the domain.
func checkArg(pass *analysis.Pass, callee string, arg ast.Expr) {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(arg)]
	if !ok {
		return
	}
	// Constant operand: compare the value itself.
	if tv.Value != nil {
		if v, exact := constant.Uint64Val(constant.ToInt(tv.Value)); exact && v > maxDomain {
			pass.Reportf(arg.Pos(), "constant %s exceeds core.%s's 2^62 operand domain: the signed-subtraction mask misevaluates (use a cut <= 2^62, e.g. 1<<33 for a disabled threshold)", tv.Value.ExactString(), callee)
		}
		return
	}
	// Conversion operand: uint64(x) from a type wider than the domain.
	conv, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok || !analysis.IsConversion(pass.TypesInfo, conv) || len(conv.Args) != 1 {
		return
	}
	opTV, ok := pass.TypesInfo.Types[conv.Args[0]]
	if !ok || opTV.Value != nil { // constant conversions were handled above
		return
	}
	basic, ok := opTV.Type.Underlying().(*types.Basic)
	if !ok {
		return
	}
	switch basic.Kind() {
	case types.Int, types.Int64, types.Uint, types.Uint64, types.Uintptr,
		types.Float32, types.Float64:
		pass.Reportf(arg.Pos(), "conversion from %s may exceed core.%s's 2^62 operand domain (a negative or large value wraps past the sign bit); convert from a provably narrow type or annotate //ba:allow-mask with the range proof", basic.Name(), callee)
	}
}
