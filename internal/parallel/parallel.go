// Package parallel is the reusable parallel-execution layer for the
// repo's embarrassingly parallel sweeps. It has two customers:
// restoration scenario sweeps (restore.SweepWithOptions, one independent
// solve per fiber-cut case, §8 / Figs. 15–16) and eval's figure points
// (one plan or sweep per (scheme, scale) point, Figs. 12 and 15b).
//
// The pool is bounded (default runtime.GOMAXPROCS), honours
// context.Context cancellation, recovers per-item panics into errors,
// and places every result at its input index regardless of completion
// order — so a parallel run is byte-identical to a sequential one as
// long as the per-item function is deterministic and items are
// independent. Workers == 1 bypasses the pool entirely and runs the
// items inline, keeping small instances and tests on the exact
// sequential code path.
//
// Concurrency contract for callers: the per-item function receives only
// its index (and the context); any shared inputs it captures must be
// treated as read-only for the duration of the run, and any mutable
// state (allocators, solver models, result accumulators) must be
// per-item. See DESIGN.md §3 for the repo-wide contract.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: n > 0 is used as-is, anything
// else (0 or negative) defaults to runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a panic recovered from a worker, converted into an
// ordinary per-item error so one bad item cannot take down a sweep.
type PanicError struct {
	// Value is the value passed to panic.
	Value interface{}
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v", e.Value)
}

// Map runs fn for every index in [0, n) on up to workers goroutines and
// returns the results and errors, both indexed by input position.
// Exactly one of results[i]/errs[i] is meaningful per item: errs[i] is
// nil on success. A nil ctx means context.Background(). Once ctx is
// cancelled, items not yet started are marked with ctx.Err() and in-flight
// items run to completion.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, []error) {
	results := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return results, errs
	}
	if ctx == nil {
		ctx = context.Background()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &PanicError{Value: r, Stack: debug.Stack()}
			}
		}()
		results[i], errs[i] = fn(ctx, i)
	}
	// Workers claim indices from one counter, in order: an item costs an
	// atomic add to hand out, so items of a few microseconds still spread.
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			runOne(i)
		}
	}
	if w == 1 {
		// Sequential path: no goroutines, identical to a plain loop.
		work()
		return results, errs
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return results, errs
}

// ForEach is Map for per-item functions with no result value.
func ForEach(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) []error {
	_, errs := Map(ctx, workers, n, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return errs
}

// First returns the first non-nil error in errs, or nil.
func First(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
