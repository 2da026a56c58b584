// Command balint is the repo's branch-avoiding contract checker: a
// go vet -vettool backend bundling the internal/analysis suite.
//
// Usage:
//
//	go build -o balint ./cmd/balint
//	go vet -vettool=$(pwd)/balint ./...
//
// The checks (see internal/analysis/... for the full contracts):
//
//	branchfree   //ba:branch-free regions contain no branches and call
//	             only mask/bit intrinsics or other marked functions
//	atomicfree   //ba:atomic-free and //ba:branch-free regions contain
//	             no atomics, mutexes, or channel operations
//	maskdomain   core.MaskLess64-family operands stay within the proven
//	             2^62 domain of the signed-subtraction mask
//	barrierctx   kernel packages observe cancellation via ctx.Err() at
//	             pass barriers only
package main

import (
	"bagraph/internal/analysis/atomicfree"
	"bagraph/internal/analysis/barrierctx"
	"bagraph/internal/analysis/branchfree"
	"bagraph/internal/analysis/maskdomain"
	"bagraph/internal/analysis/unitchecker"
)

func main() {
	unitchecker.Main(
		branchfree.Analyzer,
		atomicfree.Analyzer,
		maskdomain.Analyzer,
		barrierctx.Analyzer,
	)
}
