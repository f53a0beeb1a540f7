// Package par provides the bounded worker-pool primitives the
// measurement pipeline fans out with.
//
// The pipeline's determinism contract (see doc.go at the repo root)
// requires that parallel execution change only wall-clock time, never
// results. Every fan-out in this codebase therefore writes into a slot
// indexed by task position and derives any randomness from a per-task
// seed, so ForEach can schedule tasks in any order on any number of
// workers and the assembled output is byte-identical to a serial run.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers returns the fan-out width: GOMAXPROCS, floored at 1.
func Workers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// TaskPanic wraps a panic raised inside a ForEach task. Pool
// goroutines capture task panics and ForEach re-raises the
// lowest-index one on the caller's goroutine, so a fault anywhere in a
// fan-out unwinds through the caller — where serving layers install
// their recover() containment — instead of killing the process from an
// anonymous worker goroutine. Value is the original panic value and
// Stack the panicking task's stack, preserved because re-panicking
// happens on a different goroutine.
type TaskPanic struct {
	Index int
	Value any
	Stack []byte
}

func (p *TaskPanic) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v", p.Index, p.Value)
}

// Unwrap exposes the original panic value when it was an error, so
// handlers can errors.As through a TaskPanic.
func (p *TaskPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// run executes one task, converting a panic into its slot's TaskPanic.
// A value that is already a TaskPanic (a nested ForEach re-raise)
// passes through with its original index and stack intact.
func run(i int, fn func(i int) error, errs []error, panics []*TaskPanic) {
	defer func() {
		if r := recover(); r != nil {
			if tp, ok := r.(*TaskPanic); ok {
				panics[i] = tp
				return
			}
			panics[i] = &TaskPanic{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	errs[i] = fn(i)
}

// rethrow re-raises the lowest-index captured panic, if any. Running
// every task before re-panicking (rather than aborting at the first
// panic) keeps the side effects a caller observes identical across
// widths: the same slots written, the same lowest-index panic, whether
// the schedule was serial or parallel.
func rethrow(panics []*TaskPanic) {
	for _, tp := range panics {
		if tp != nil {
			panic(tp)
		}
	}
}

// ForEach runs fn(0), ..., fn(n-1) across min(Workers(), n) goroutines
// and blocks until every call has returned. Tasks are handed out by an
// atomic counter, so callers must make fn(i) write only into its own
// index-i slot (or otherwise synchronize).
//
// If any calls fail, the error of the lowest failing index is returned,
// so error reporting is as deterministic as the results themselves.
// A task that panics does not kill the process from a pool goroutine:
// every task still runs, then the lowest-index panic is re-raised on
// the caller's goroutine wrapped in *TaskPanic — the same panic a
// serial execution of the tasks would surface — so callers' recover()
// boundaries see fan-out faults exactly like inline ones.
func ForEach(n int, fn func(i int) error) error {
	w := Workers()
	if w > n {
		w = n
	}
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	panics := make([]*TaskPanic, n)
	if w <= 1 {
		// Serial fast path. Like the parallel path it runs every task,
		// so a caller observes the same slots written, the same
		// lowest-index error and the same lowest-index panic regardless
		// of width.
		for i := 0; i < n; i++ {
			run(i, fn, errs, panics)
		}
		rethrow(panics)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i, fn, errs, panics)
			}
		}()
	}
	wg.Wait()
	rethrow(panics)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Lazy is a singleflight cell: the first Get builds the value, every
// concurrent caller blocks on that one build, and the result (value and
// error alike) is immutable afterwards.
type Lazy[T any] struct {
	once sync.Once
	val  T
	err  error
}

// Get returns the cell's value, building it with build on first use.
func (c *Lazy[T]) Get(build func() (T, error)) (T, error) {
	c.once.Do(func() { c.val, c.err = build() })
	return c.val, c.err
}
