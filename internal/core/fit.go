package core

// Fit returns buf resliced to length n, allocating only when its
// capacity is short; a nil buf is an empty buffer. It is the one rule
// every kernel takes its memory under: a buffer the caller hands in is
// reused by capacity, so one set of buffers serves graphs of any size
// and, once it has served the largest, allocates nothing more. The
// contents are stale; every caller overwrites them.
func Fit[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
