package engine

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Retry is the panic value used by transactional operations to signal that
// the current transaction attempt has encountered a conflict and must be
// re-executed. It never escapes Run.
type Retry struct {
	// Why describes the conflict for diagnostics.
	Why string
	// Cause classifies the conflict for the abort-cause taxonomy. The zero
	// value is CauseValidation, the most common conflict kind.
	Cause AbortCause
}

func (r *Retry) String() string { return "engine: retry: " + r.Why }

// Abandon panics with a *Retry carrying the given reason, classified as an
// ownership conflict (the historical common case). Use AbandonCause when a
// different cause applies.
func Abandon(format string, args ...any) {
	AbandonCause(CauseOwnership, format, args...)
}

// AbandonCause panics with a *Retry carrying the given abort cause and
// reason. Engines call it from the middle of an operation that cannot
// continue (for example, OpenForUpdate losing an ownership race after the
// contention manager gave up, or a snapshot read observing a too-new
// version).
func AbandonCause(cause AbortCause, format string, args ...any) {
	panic(&Retry{Why: fmt.Sprintf(format, args...), Cause: cause})
}

// Run executes body as a transaction against e, retrying on conflict until
// the body commits or returns a non-nil error. It is the engine-neutral
// equivalent of the paper's re-execution loop around an atomic block.
//
// The body may be executed multiple times and therefore must be free of
// non-transactional side effects. A non-nil error from the body aborts the
// transaction and is returned to the caller without retrying.
func Run(e Engine, body func(tx Txn) error) error {
	return RunCtx(nil, e, RunOptions{}, body)
}

// RunReadOnly is Run for transactions that perform no updates.
func RunReadOnly(e Engine, body func(tx Txn) error) error {
	return RunReadOnlyCtx(nil, e, RunOptions{}, body)
}

// RunCtx is Run bounded by a context and a retry budget (see Loop): on any
// bound firing it returns a *TimeoutError instead of retrying; a committed
// attempt or a validated body error returns exactly as Run does. Engines
// implementing CtxBinder additionally observe the ctx and deadline at
// contention-manager waits inside an attempt.
func RunCtx(ctx context.Context, e Engine, opts RunOptions, body func(tx Txn) error) error {
	return runBody(ctx, e, opts, false, body)
}

// RunReadOnlyCtx is RunCtx for transactions that perform no updates.
func RunReadOnlyCtx(ctx context.Context, e Engine, opts RunOptions, body func(tx Txn) error) error {
	return runBody(ctx, e, opts, true, body)
}

func runBody(ctx context.Context, e Engine, opts RunOptions, readonly bool, body func(tx Txn) error) error {
	conflicts, err := Loop(ctx, opts, e.CM(), func(ctx context.Context, deadline time.Time, karma int) (error, bool) {
		return Attempt(BeginAttempt(e, readonly, ctx, deadline, karma), body)
	})
	if err == nil {
		// The transaction committed; record how many aborted attempts it
		// took to get there.
		e.Metrics().ObserveRetries(conflicts)
	}
	return err
}

// Loop is the one re-execution loop every transaction runs through, whether
// it is begun by Run, by the kv store's single-shard path, or by its
// cross-shard two-phase commit. attempt runs one begin/body/commit and
// reports whether it conflicted; it receives the loop's context and
// effective deadline (to bind into the transactions it begins) and karma,
// the number of attempts already lost. Loop feeds every outcome to cm, backs
// off between conflicted attempts, and returns the number of conflicts
// together with the error of the first attempt that did not conflict (nil
// when it committed).
//
// With a nil ctx and zero opts the loop is unbounded: it never reads the
// clock and hands attempt a nil ctx. Otherwise, before every attempt it
// observes ctx cancellation, ctx's deadline, and opts.MaxElapsed (measured
// from the Loop call; whichever of the two deadlines is earlier wins), and
// after every conflict opts.MaxAttempts. When a bound fires it gives up with
// a *TimeoutError, and backoff sleeps are clamped to the deadline and cut
// short by cancellation.
func Loop(ctx context.Context, opts RunOptions, cm *CM,
	attempt func(ctx context.Context, deadline time.Time, karma int) (err error, conflicted bool)) (conflicts int, err error) {
	var start, deadline time.Time
	budgetDeadline := false // the effective deadline came from MaxElapsed
	bounded := ctx != nil || opts != RunOptions{}
	if bounded {
		if ctx == nil {
			ctx = context.Background()
		}
		start = time.Now()
		if d, ok := ctx.Deadline(); ok {
			deadline = d
		}
		if opts.MaxElapsed > 0 {
			if b := start.Add(opts.MaxElapsed); deadline.IsZero() || b.Before(deadline) {
				deadline, budgetDeadline = b, true
			}
		}
	}
	giveUp := func(op string, cause error) (int, error) {
		return conflicts, &TimeoutError{Op: op, Attempts: conflicts, Elapsed: time.Since(start), cause: cause}
	}

	var backoff Backoff
	backoff.Bind(cm)
	for {
		if bounded {
			if cerr := ctx.Err(); cerr != nil {
				if errors.Is(cerr, context.DeadlineExceeded) {
					return giveUp("deadline", cerr)
				}
				return giveUp("canceled", cerr)
			}
			if !deadline.IsZero() && !time.Now().Before(deadline) {
				if budgetDeadline {
					return giveUp("max-elapsed", ErrRetryBudget)
				}
				return giveUp("deadline", context.DeadlineExceeded)
			}
		}
		err, conflicted := attempt(ctx, deadline, conflicts)
		cm.ObserveOutcome(conflicted)
		if !conflicted {
			return conflicts, err
		}
		conflicts++
		if opts.MaxAttempts > 0 && conflicts >= opts.MaxAttempts {
			return giveUp("max-attempts", ErrRetryBudget)
		}
		backoff.WaitCtx(ctx, deadline)
	}
}

// BeginAttempt begins one attempt on e for a retry loop: it binds ctx and
// deadline into engines that observe them at contention-manager waits
// (CtxBinder; a nil ctx binds nothing) and hands engines with karma-priority
// waits the number of attempts already lost (KarmaSetter).
func BeginAttempt(e Engine, readonly bool, ctx context.Context, deadline time.Time, karma int) Txn {
	var tx Txn
	if readonly {
		tx = e.BeginReadOnly()
	} else {
		tx = e.Begin()
	}
	if ctx != nil {
		if cb, ok := tx.(CtxBinder); ok {
			cb.BindContext(ctx, deadline)
		}
	}
	if karma > 0 {
		if ks, ok := tx.(KarmaSetter); ok {
			ks.SetKarma(karma)
		}
	}
	return tx
}

// Attempt runs one execution of the body on an already-begun transaction,
// translating Retry panics and commit conflicts into conflicted=true. Any
// other panic propagates after the transaction is rolled back. It is the
// attempt Run hands to Loop; layers that pass Loop their own attempt (the kv
// store, whose attempt also takes the shard gates) build it from
// AttemptWith.
func Attempt(tx Txn, body func(tx Txn) error) (err error, conflicted bool) {
	return AttemptWith(tx, body, nil)
}

// AttemptWith is Attempt with the commit step swapped out: when commit is
// non-nil it runs in place of tx.Commit() and must call it. The kv store's
// durable commit path uses this to couple the engine commit with the
// write-ahead-log append under one shard-local mutex, so log order matches
// commit order. The hook observes the same contract as tx.Commit — returning
// ErrConflict counts as a conflicted attempt.
func AttemptWith(tx Txn, body func(tx Txn) error, commit func(tx Txn) error) (err error, conflicted bool) {
	committed := false
	defer func() {
		if committed {
			return
		}
		r := recover()
		if r == nil {
			return
		}
		if rt, ok := r.(*Retry); ok {
			// Attribute the abort to the cause the conflicting operation
			// reported before rolling back.
			tx.SetAbortCause(rt.Cause)
			tx.Abort()
			err, conflicted = nil, true
			return
		}
		tx.Abort()
		panic(r)
	}()

	if err := body(tx); err != nil {
		// The engines are not opaque: the body may have computed its error
		// from an inconsistent (doomed) snapshot. Only a validated error is
		// allowed to escape; a doomed attempt retries instead.
		doomed := tx.Validate() != nil
		if doomed {
			tx.SetAbortCause(CauseDoomed)
		}
		tx.Abort()
		committed = true // suppress the deferred recovery path
		if doomed {
			return nil, true
		}
		return err, false
	}
	if commit != nil {
		err = commit(tx)
	} else {
		err = tx.Commit()
	}
	committed = true
	if err == ErrConflict {
		return nil, true
	}
	return err, false
}
