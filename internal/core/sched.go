package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// panicInfo captures a recovered panic at the point of recovery: the
// rendered panic value (deterministic for a given fault) and the goroutine
// stack (diagnostic only — stacks embed goroutine IDs, so they are carried
// in Result.Stack and never in the obs event stream).
type panicInfo struct {
	msg   string
	stack string
}

func capturePanic(r any) *panicInfo {
	return &panicInfo{msg: fmt.Sprint(r), stack: string(debug.Stack())}
}

// parallelFor runs f(0..n-1) across at most workers goroutines and waits for
// all of them. With workers <= 1 it degenerates to a plain loop on the
// calling goroutine (no goroutines spawned), so the sequential batch path
// has zero scheduling overhead. Work is handed out by an atomic counter, so
// the assignment of indices to goroutines is nondeterministic — callers must
// make each f(i) a pure function of its inputs writing only to slot i.
func parallelFor(workers, n int, f func(i int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}
