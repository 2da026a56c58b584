package main

import (
	"encoding/json"
	"strings"
	"testing"

	"bagraph/internal/bfs"
	"bagraph/internal/serve"
	"bagraph/internal/sssp"
	"bagraph/internal/xrand"
)

// The streaming scanner must read exactly what encoding/json reads.
func TestScanArrayAgainstEncodingJSON(t *testing.T) {
	r := xrand.New(7)
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(400)
		hops := make([]uint32, n)
		dists := make([]uint64, n)
		for i := range hops {
			switch r.Intn(4) {
			case 0:
				hops[i], dists[i] = bfs.Inf, sssp.Inf
			case 1:
				hops[i], dists[i] = r.Uint32(), r.Uint64()>>2
			default:
				hops[i], dists[i] = uint32(r.Intn(12)), uint64(r.Intn(500))
			}
		}
		body, err := json.Marshal(&serve.BFSResponse{Graph: "g", Epoch: 3, Root: 9, Batch: 2, Reached: 5, Dist: hops})
		if err != nil {
			t.Fatal(err)
		}
		var back serve.BFSResponse
		if err := json.Unmarshal(body, &back); err != nil {
			t.Fatal(err)
		}
		got, err := scanArray(body, "dist", uint64(bfs.Inf))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		wantReached := 0
		for _, h := range back.Dist {
			if h != bfs.Inf {
				wantReached++
			}
		}
		if got.n != len(back.Dist) || got.digest != digest32(back.Dist) || got.reached != wantReached {
			t.Fatalf("trial %d: scanned %+v, want n=%d digest=%x reached=%d", trial, got, len(back.Dist), digest32(back.Dist), wantReached)
		}

		body, err = json.Marshal(&serve.SSSPResponse{Graph: "g", Epoch: 1, Sum: 77, Dist: dists})
		if err != nil {
			t.Fatal(err)
		}
		got, err = scanArray(body, "dist", sssp.Inf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var wantSum uint64
		for _, d := range dists {
			if d != sssp.Inf {
				wantSum += d
			}
		}
		if got.n != n || got.digest != digest64(dists) || got.sum != wantSum {
			t.Fatalf("trial %d: scanned %+v, want n=%d digest=%x sum=%d", trial, got, n, digest64(dists), wantSum)
		}
		if v, err := fieldUint(body, "sum"); err != nil || v != 77 {
			t.Fatalf("fieldUint(sum) = %d, %v", v, err)
		}
	}
}

func TestScanArrayRejectsDamage(t *testing.T) {
	for name, body := range map[string]string{
		"truncated":      `{"epoch":1,"dist":[1,2,3`,
		"missing":        `{"epoch":1,"labels":[1,2,3]}`,
		"letter":         `{"dist":[1,x,3]}`,
		"negative":       `{"dist":[1,-2,3]}`,
		"trailing comma": `{"dist":[1,2,]}`,
		"leading comma":  `{"dist":[,1,2]}`,
		"space":          `{"dist":[1, 2]}`,
		"overflow":       `{"dist":[99999999999999999999]}`,
	} {
		if _, err := scanArray([]byte(body), "dist", 0); err == nil {
			t.Errorf("%s: %s scanned without error", name, body)
		}
	}
	if s, err := scanArray([]byte(`{"dist":[]}`), "dist", 0); err != nil || s.n != 0 {
		t.Errorf("empty array: %+v, %v", s, err)
	}
}

func TestDigestSeesOrderAndSingleElements(t *testing.T) {
	a := []uint32{1, 2, 3, 4}
	for name, b := range map[string][]uint32{
		"swapped":   {2, 1, 3, 4},
		"one off":   {1, 2, 3, 5},
		"shorter":   {1, 2, 3},
		"zero tail": {1, 2, 3, 4, 0},
	} {
		if digest32(a) == digest32(b) {
			t.Errorf("%s: digest collision", name)
		}
	}
}

func TestFieldHelpers(t *testing.T) {
	body := []byte(`{"graph":"g","epoch":12,"cached":true,"stats":{"passes":3},"labels":[0,0]}`)
	if v, err := fieldUint(body, "epoch"); err != nil || v != 12 {
		t.Errorf("epoch = %d, %v", v, err)
	}
	if _, err := fieldUint(body, "reached"); err == nil {
		t.Error("missing field read without error")
	}
	if _, err := fieldUint([]byte(`{"epoch":"x"}`), "epoch"); err == nil || !strings.Contains(err.Error(), "not a number") {
		t.Errorf("non-numeric field: %v", err)
	}
	if !fieldTrue(body, "cached") || fieldTrue([]byte(`{"cached":false}`), "cached") {
		t.Error("fieldTrue misread cached")
	}
}
