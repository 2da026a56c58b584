package main

import (
	"bytes"
	"fmt"
)

// The serve clients verify every response without encoding/json: a
// 300k-element array costs json.Unmarshal ~35 ms, which would make the
// load generator the bottleneck of the system it measures. The scanner
// below reads the one integer array of a response body in a single pass
// and folds it into the same digest the oracles were folded into.

const digestInit = 0xcbf29ce484222325

// digestStep folds one value into a running digest. Each step is a
// bijection of the running state for a fixed value and of the value for
// a fixed state, so two arrays differing in one element never collide
// on that element alone.
func digestStep(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ (h >> 29)
}

func digest32(xs []uint32) uint64 {
	h := uint64(digestInit)
	for _, x := range xs {
		h = digestStep(h, uint64(x))
	}
	return h
}

func digest64(xs []uint64) uint64 {
	h := uint64(digestInit)
	for _, x := range xs {
		h = digestStep(h, x)
	}
	return h
}

// arraySummary is what one pass over a response array yields.
type arraySummary struct {
	n       int
	digest  uint64
	reached int    // elements other than the sentinel
	sum     uint64 // sum of those elements
}

// scanArray finds `"key":[` in body and reads the unsigned integers up
// to the closing bracket. sentinel is the in-band "unreached" value,
// excluded from reached and sum.
func scanArray(body []byte, key string, sentinel uint64) (arraySummary, error) {
	s := arraySummary{digest: digestInit}
	open := []byte(`"` + key + `":[`)
	at := bytes.Index(body, open)
	if at < 0 {
		return s, fmt.Errorf("no %q array in body", key)
	}
	i := at + len(open)
	for i < len(body) && body[i] != ']' {
		if body[i] < '0' || body[i] > '9' {
			return s, fmt.Errorf("%q array: unexpected byte %q at %d", key, body[i], i)
		}
		var v uint64
		for i < len(body) && body[i] >= '0' && body[i] <= '9' {
			d := uint64(body[i] - '0')
			if v > (^uint64(0)-d)/10 {
				return s, fmt.Errorf("%q array: element %d overflows 64 bits", key, s.n)
			}
			v = v*10 + d
			i++
		}
		s.n++
		s.digest = digestStep(s.digest, v)
		if v != sentinel {
			s.reached++
			s.sum += v
		}
		if i < len(body) && body[i] == ',' {
			i++
			if i < len(body) && body[i] == ']' {
				return s, fmt.Errorf("%q array: trailing comma", key)
			}
		}
	}
	if i >= len(body) {
		return s, fmt.Errorf("%q array: body ends inside the array", key)
	}
	return s, nil
}

// fieldUint reads the unsigned integer after the first `"key":` in body.
func fieldUint(body []byte, key string) (uint64, error) {
	pat := []byte(`"` + key + `":`)
	at := bytes.Index(body, pat)
	if at < 0 {
		return 0, fmt.Errorf("no %q field in body", key)
	}
	i := at + len(pat)
	start := i
	var v uint64
	for i < len(body) && body[i] >= '0' && body[i] <= '9' {
		v = v*10 + uint64(body[i]-'0')
		i++
	}
	if i == start {
		return 0, fmt.Errorf("%q field is not a number", key)
	}
	return v, nil
}

// fieldTrue reports whether body holds `"key":true`.
func fieldTrue(body []byte, key string) bool {
	return bytes.Contains(body, []byte(`"`+key+`":true`))
}
