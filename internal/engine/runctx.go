package engine

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// RunOptions bounds a transaction's retry loop (see Loop). The zero value
// applies no bound beyond the context's own deadline and cancellation.
type RunOptions struct {
	// MaxAttempts caps total attempts (1 means no retry); 0 means unlimited.
	MaxAttempts int
	// MaxElapsed caps the total time spent across attempts, measured from
	// the start of the loop; 0 means unlimited. It combines with a context
	// deadline by taking whichever expires first.
	MaxElapsed time.Duration
}

// ErrRetryBudget reports that a transaction gave up because its RunOptions
// budget (MaxAttempts or MaxElapsed) ran out, as opposed to its context
// being canceled or timing out. Returned wrapped in *TimeoutError.
var ErrRetryBudget = errors.New("engine: retry budget exhausted")

// TimeoutError reports that a bounded retry loop gave up without
// committing. Unwrap yields context.Canceled, context.DeadlineExceeded, or
// ErrRetryBudget; Timeout marks it retriable for net.Error-style checks.
type TimeoutError struct {
	// Op names the bound that fired: "canceled", "deadline", "max-attempts",
	// or "max-elapsed".
	Op string
	// Attempts counts how many attempts ran before giving up.
	Attempts int
	// Elapsed is the wall-clock time from the start of the loop to the
	// give-up.
	Elapsed time.Duration

	cause error
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("engine: transaction %s after %d attempt(s) in %v", e.Op, e.Attempts, e.Elapsed)
}

func (e *TimeoutError) Unwrap() error { return e.cause }

// Timeout reports true: the transaction did not commit but may be retried
// later.
func (e *TimeoutError) Timeout() bool { return true }

// CtxBinder is implemented by transactions that can observe cancellation
// and deadlines mid-attempt — at contention-manager wait points, where an
// eager-ownership attempt can otherwise block indefinitely behind a stalled
// owner. BeginAttempt binds every transaction of a bounded loop; a bound
// attempt whose deadline passes at a wait point abandons itself with
// CauseDeadline and the loop gives up on the next bound check.
type CtxBinder interface {
	BindContext(ctx context.Context, deadline time.Time)
}
