package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample. xs is
// not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// geomean returns the geometric mean of xs, 0 when xs is empty or holds
// a non-positive value: a cell that was not measured must yield a class
// time nobody can mistake for one, where stats.GeoMean would panic.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// covered returns how much of [start, end) the given intervals cover,
// counting overlapping parts once: the part of a span its children
// account for.
func covered(start, end int64, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < start {
			c.start = start
		}
		if c.end > end {
			c.end = end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64
	reach = start
	for _, c := range clipped {
		if c.start > reach {
			reach = c.start
		}
		if c.end > reach {
			total += c.end - reach
			reach = c.end
		}
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(start, end int64, children []interval) int64 {
	return (end - start) - covered(start, end, children)
}
