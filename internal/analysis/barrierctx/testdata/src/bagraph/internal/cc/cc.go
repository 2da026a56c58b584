// Fixture for the barrierctx analyzer, placed at a kernel package path
// (the contract only governs bagraph/internal/{cc,bfs,sssp,par}).
package cc

import "context"

func doneAnywhere(ctx context.Context) {
	select {
	case <-ctx.Done(): // want `ctx.Done\(\) in a kernel package`
	default:
	}
}

func barriers(ctx context.Context, n int) error {
	if err := ctx.Err(); err != nil { // depth 0: ok
		return err
	}
	for pass := 0; pass < n; pass++ {
		if err := ctx.Err(); err != nil { // depth 1, the pass barrier: ok
			return err
		}
		for v := 0; v < n; v++ {
			if err := ctx.Err(); err != nil { // want `ctx.Err\(\) at loop depth 2`
				return err
			}
		}
	}
	return nil
}

func closureResetsDepth(ctx context.Context, n int) error {
	relax := func() error {
		return ctx.Err() // depth 0 inside the literal: ok
	}
	for pass := 0; pass < n; pass++ {
		for sub := 0; sub < n; sub++ {
			if err := relax(); err != nil {
				return err
			}
		}
	}
	return nil
}

func insideMarkedRegion(ctx context.Context, dst []uint64) {
	//ba:atomic-free
	for i := range dst {
		_ = ctx.Err() // want `ctx.Err\(\) inside a //ba: marked region`
		dst[i] = 0
	}
}
