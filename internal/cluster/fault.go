package cluster

import (
	"context"
	"errors"
)

// Op identifies the shard-local operation a fault hook intercepts.
type Op string

// Shard-local operations visible to FaultPolicy.
const (
	OpSearch     Op = "search"
	OpInsert     Op = "insert"
	OpDelete     Op = "delete"
	OpBulkInsert Op = "bulk-insert"
	OpCompact    Op = "compact"
)

// read reports whether the operation is read-only. Read-only attempts
// that time out are retried (re-running them is free of side effects);
// a timed-out mutation is not, because its effect is ambiguous — the
// deadline may fire after the shard applied it.
func (op Op) read() bool { return op == OpSearch }

// FaultPolicy injects failures into shard-local operations for chaos
// tests and resilience drills. Fault is consulted at the start of every
// attempt (attempt 0 is the first try, 1 the first retry, …), inline on
// the caller's goroutine:
//
//   - return nil to let the attempt proceed;
//   - return an error to fail the attempt with it (the coordinator
//     retries with backoff, and surfaces the error — matchable with
//     errors.Is — when retries are exhausted);
//   - block on ctx.Done() to stall the shard: ctx carries the attempt's
//     per-shard deadline (Config.ShardTimeout) under the caller's own, and
//     when the per-shard one fires the coordinator turns the stall into
//     ErrShardTimeout, whatever Fault returns. A hook that blocks without
//     watching ctx holds the caller for as long as it blocks.
type FaultPolicy interface {
	Fault(ctx context.Context, shard int, op Op, attempt int) error
}

// FaultFunc adapts a function to FaultPolicy.
type FaultFunc func(ctx context.Context, shard int, op Op, attempt int) error

// Fault implements FaultPolicy.
func (f FaultFunc) Fault(ctx context.Context, shard int, op Op, attempt int) error {
	return f(ctx, shard, op, attempt)
}

// faultError marks an error as injected by the FaultPolicy. Injected
// failures happen before the shard-local operation runs, so retrying
// them is always safe — for mutations too.
type faultError struct{ err error }

func (e *faultError) Error() string { return e.err.Error() }
func (e *faultError) Unwrap() error { return e.err }

func isInjected(err error) bool {
	var fe *faultError
	return errors.As(err, &fe)
}

// retryable classifies a failed attempt: injected faults retry on any
// op (the fault fired before the operation ran), timeouts retry only on
// read-only ops, a down shard never retries (reopening is explicit),
// and everything else — vsdb validation or I/O errors — is permanent.
// A mutation that raced a promotion (ErrPrimaryMoved) always retries:
// it observed the deposed primary and did not run, so re-attempting
// against the reloaded shard is free of side effects.
func retryable(op Op, err error) bool {
	if errors.Is(err, ErrShardDown) {
		return false
	}
	if errors.Is(err, ErrPrimaryMoved) {
		return true
	}
	if isInjected(err) {
		return true
	}
	if errors.Is(err, ErrShardTimeout) {
		return op.read()
	}
	return false
}

// Unavailable reports whether err says a shard could not serve — it is
// down (ErrShardDown), it outran its deadline (ErrShardTimeout), an
// injected fault outlived its retries, or its primary kept moving
// (ErrPrimaryMoved) — rather than that the operation itself failed. The
// server answers the first kind 502 and the second 500.
func Unavailable(err error) bool {
	return errors.Is(err, ErrShardDown) || errors.Is(err, ErrShardTimeout) ||
		errors.Is(err, ErrPrimaryMoved) || isInjected(err)
}
