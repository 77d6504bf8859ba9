// Package budget implements cooperative cancellation for the TRACER loop.
//
// A Budget bundles the three ways a solve can be bounded — a
// context.Context (caller cancellation, e.g. SIGINT), a wall-clock
// deadline (the paper's 1,000-minute cap), and a step quota (a
// machine-independent work bound) — behind one cheap polling point. Every
// potentially-long phase of the loop (building minsat's diagram of the
// viable set, the chaotic forward iteration, the RHS tabulation worklist,
// the backward meta-analysis cube expansion) calls Poll once per unit of
// work and aborts its phase when Poll returns false, leaving a partial
// result that the caller reports as Exhausted. A phase that outgrows a fixed
// memory cap trips the budget itself (cause Space), with the same outcome.
//
// Poll is amortized: it is one atomic add plus a quota comparison on the
// fast path; the context and clock are consulted only every pollInterval
// steps, so a tripped deadline is observed within one polling interval.
// The first trip cause wins and is sticky; all methods are safe for
// concurrent use and tolerate a nil receiver (a nil *Budget never trips),
// so unbudgeted callers pass nil without guards.
package budget

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// Cause classifies why a budget tripped.
type Cause int32

const (
	// None: the budget has not tripped.
	None Cause = iota
	// Canceled: the context was canceled (e.g. SIGINT).
	Canceled
	// Deadline: the wall-clock deadline passed.
	Deadline
	// Steps: the step quota was exceeded.
	Steps
	// Injected: a fault injector (or other external caller) tripped the
	// budget explicitly via Trip.
	Injected
	// Space: a phase needed more memory than its fixed cap allows (minsat's
	// diagram of the viable set past its node cap, even after compaction).
	Space
)

func (c Cause) String() string {
	switch c {
	case None:
		return "none"
	case Canceled:
		return "canceled"
	case Deadline:
		return "deadline"
	case Steps:
		return "steps"
	case Injected:
		return "injected"
	case Space:
		return "space"
	}
	return "unknown"
}

// pollInterval is how many Poll calls separate two slow checks of the
// context and the clock. It bounds how far past a deadline a cooperative
// phase can run: at most one interval's worth of steps.
const pollInterval = 256

// ErrBudget is wrapped by every error returned from Err.
var ErrBudget = errors.New("budget exhausted")

// Budget is a shared, concurrency-safe cancellation token. The zero value
// (and nil) never trips; use New to attach limits.
type Budget struct {
	ctx      context.Context
	deadline time.Time // zero = none
	quota    int64     // <= 0 = none

	steps atomic.Int64
	cause atomic.Int32
}

// New builds a budget. ctx may be nil (no cancellation), deadline may be
// zero (no wall cap), and quota may be <= 0 (no step cap); a budget with no
// limits still supports Trip, which fault injection uses.
func New(ctx context.Context, deadline time.Time, quota int64) *Budget {
	return &Budget{ctx: ctx, deadline: deadline, quota: quota}
}

// Poll charges one step and reports whether work may continue. It is the
// amortized check placed on the hot paths: the context and clock are
// consulted every pollInterval calls, the quota on every call.
func (b *Budget) Poll() bool {
	if b == nil {
		return true
	}
	if b.cause.Load() != 0 {
		return false
	}
	n := b.steps.Add(1)
	if b.quota > 0 && n > b.quota {
		b.Trip(Steps)
		return false
	}
	if n%pollInterval != 0 {
		return true
	}
	return b.slow()
}

// Check reports whether work may continue without charging a step,
// consulting the context and clock immediately. Phase boundaries use it.
func (b *Budget) Check() bool {
	if b == nil {
		return true
	}
	if b.cause.Load() != 0 {
		return false
	}
	return b.slow()
}

func (b *Budget) slow() bool {
	if b.ctx != nil {
		select {
		case <-b.ctx.Done():
			b.Trip(Canceled)
			return false
		default:
		}
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		b.Trip(Deadline)
		return false
	}
	return true
}

// Trip marks the budget exhausted with the given cause. The first cause
// wins; later trips (and later Poll failures) keep it. Tripping a nil
// budget is a no-op.
func (b *Budget) Trip(c Cause) {
	if b == nil || c == None {
		return
	}
	b.cause.CompareAndSwap(0, int32(c))
}

// Tripped reports whether the budget has tripped. It is a single atomic
// load, cheap enough to consult after every phase.
func (b *Budget) Tripped() bool { return b != nil && b.cause.Load() != 0 }

// Cause returns the sticky first trip cause, or None.
func (b *Budget) Cause() Cause {
	if b == nil {
		return None
	}
	return Cause(b.cause.Load())
}

// Steps returns how many steps have been charged via Poll.
func (b *Budget) Steps() int64 {
	if b == nil {
		return 0
	}
	return b.steps.Load()
}

// Err returns nil if the budget has not tripped, and otherwise an error
// wrapping ErrBudget that names the cause.
func (b *Budget) Err() error {
	c := b.Cause()
	if c == None {
		return nil
	}
	return &tripError{c}
}

type tripError struct{ c Cause }

func (e *tripError) Error() string { return "budget exhausted: " + e.c.String() }
func (e *tripError) Unwrap() error { return ErrBudget }
