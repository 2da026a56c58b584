package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"bagraph/internal/metis"
	"bagraph/internal/serve"
)

// Probes measure one layer in isolation, after the measured windows.

// jsonProbes times encoding/json on the response structs with an
// n-element array: the floor an append-based encoder or a byte
// pass-through is measured against. Element values have the digit
// counts the workloads' answers have (one digit for hops and labels on
// these low-diameter, connected graphs; two for weighted distances).
func jsonProbes(out *metricSet, n int) {
	const reps = 5
	hops := make([]uint32, n)
	dists := make([]uint64, n)
	for i := range hops {
		hops[i] = uint32(i % 10)
		dists[i] = uint64(10 + i%90)
	}
	probe := func(suffix string, resp any, into func() any) {
		var enc, dec []float64
		var raw []byte
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			var err error
			if raw, err = json.Marshal(resp); err != nil {
				return
			}
			enc = append(enc, float64(time.Since(t0).Nanoseconds()))
			t0 = time.Now()
			if err := json.Unmarshal(raw, into()); err != nil {
				return
			}
			dec = append(dec, float64(time.Since(t0).Nanoseconds()))
		}
		out.set("json.encode_ns_per_elem_"+suffix, median(enc)/float64(n), reps)
		out.set("json.decode_ns_per_elem_"+suffix, median(dec)/float64(n), reps)
	}
	probe("u32", &serve.BFSResponse{Graph: "probe", Algo: "par-do", Dist: hops}, func() any { return new(serve.BFSResponse) })
	probe("u64", &serve.SSSPResponse{Graph: "probe", Algo: "par-hybrid", Dist: dists}, func() any { return new(serve.SSSPResponse) })
}

// metisProbe times the METIS parse a replace pays, over the file's bytes
// held in memory.
func metisProbe(out *metricSet, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	const reps = 5
	var secs []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if _, err := metis.ReadWeighted(bytes.NewReader(raw)); err != nil {
			return err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	out.set("metis.read_mb_per_s", ratio(float64(len(raw))/1e6, median(secs)), reps)
	return nil
}

// batcherProbe has 32 goroutines submit multi-source BFS queries to the
// daemon's batcher in-process: the coalescing depth two HTTP connections
// cannot reach.
func batcherProbe(out *metricSet, cfg runConfig, st *stack, si *serveInputs) error {
	const submitters = 32
	rounds := 20
	if cfg.quick {
		rounds = 3
	}
	entry, ok := st.regs[0].Get(si.graph)
	if !ok {
		return fmt.Errorf("batcher probe: graph %q is not published", si.graph)
	}
	roots := si.roots
	var (
		mu       sync.Mutex
		batchSum int
		firstErr error
		wg       sync.WaitGroup
	)
	t0 := time.Now()
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sum := 0
			for r := 0; r < rounds; r++ {
				res := st.batcher.BFS(context.Background(), entry, "ms", roots[(g+r)%len(roots)])
				if res.Err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = res.Err
					}
					mu.Unlock()
					return
				}
				sum += res.Batch
			}
			mu.Lock()
			batchSum += sum
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	queries := submitters * rounds
	out.set("batcher.ms32_us_per_query", float64(time.Since(t0).Microseconds())/float64(queries), queries)
	out.set("batcher.ms32_batch_mean", float64(batchSum)/float64(queries), queries)
	return nil
}
