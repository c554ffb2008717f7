package vsdbtest

import "github.com/voxset/voxset/internal/parallel"

// Concurrently calls fn from callers goroutines at once and returns the
// first non-empty message among theirs, in caller order ("" when every
// call returns ""). Every engine query runs on its caller's goroutine, so
// concurrent callers sharing one database are the engine's one source of
// query concurrency; the parity suites issue each query through this and
// demand the reference answer from every caller.
func Concurrently(callers int, fn func() string) string {
	msgs := make([]string, max(callers, 1))
	parallel.Run(callers, func(c int) { msgs[c] = fn() })
	for _, m := range msgs {
		if m != "" {
			return m
		}
	}
	return ""
}
