// Package analysis is a minimal, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects
// one type-checked package through a Pass and reports Diagnostics.
//
// The repo's correctness rests on contracts the compiler never checks —
// hot loops that must stay branch-free and atomic-free, mask primitives
// whose operands must stay within a proven domain, cancellation that
// may only be observed at pass barriers — and this package is the
// machinery that checks them. The toolchain's own go/analysis lives in
// x/tools, which this module deliberately does not depend on; the
// subset an in-repo linter needs (no facts, no suggested fixes, no
// cross-analyzer requirements) is small enough to carry here, and the
// shapes are kept source-compatible with x/tools so the analyzers
// could migrate to the real framework verbatim if a dependency ever
// becomes acceptable.
//
// The suite itself lives in the subpackages (branchfree, atomicfree,
// maskdomain, barrierctx), the //ba:* directive grammar in
// directive, the "go vet -vettool" driver in unitchecker, and the
// fixture-based test harness in analysistest. cmd/balint compiles the
// suite into the multichecker CI runs.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and test expectations.
	// It must be a valid Go identifier.
	Name string
	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then detail.
	Doc string
	// Run applies the analyzer to a package and reports diagnostics
	// through pass.Report. The interface{} result exists for x/tools
	// source compatibility; the suite's analyzers return (nil, nil).
	Run func(*Pass) (interface{}, error)
}

// Pass is the interface between one Analyzer run and one package.
type Pass struct {
	// Analyzer is the check being applied.
	Analyzer *Analyzer
	// Fset maps token positions of Files.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees, with comments.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the package's type-checking results.
	TypesInfo *types.Info
	// Report delivers one diagnostic. The driver fills it in.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos anchors the finding.
	Pos token.Pos
	// Message states the contract violation.
	Message string
}

// Validate checks the suite is well-formed before a driver runs it:
// every analyzer named, documented, runnable, and named uniquely.
func Validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool)
	for _, a := range analyzers {
		if a == nil {
			return fmt.Errorf("analysis: nil analyzer")
		}
		if a.Name == "" {
			return fmt.Errorf("analysis: analyzer with empty name")
		}
		if a.Doc == "" {
			return fmt.Errorf("analysis: analyzer %s has no documentation", a.Name)
		}
		if a.Run == nil {
			return fmt.Errorf("analysis: analyzer %s has no Run", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("analysis: duplicate analyzer name %s", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}
