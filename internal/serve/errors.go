package serve

import (
	"errors"
	"fmt"
	"time"
)

// ErrClosed is returned by submissions and acquisitions after the pool
// (or the engine's scheduler) has shut down.
var ErrClosed = errors.New("serve: closed")

// ErrEngineFault is the sentinel every engine-fault rejection wraps: the
// in-flight batch died to a contained panic (or corrupted payload) and
// the engine is being quarantined. Callers match it with errors.Is and
// retry — the pool rebuilds the engine behind the breaker.
var ErrEngineFault = errors.New("serve: engine fault")

// EngineFaultError reports one engine's fault to the requests caught in
// the faulted batch (and to submissions racing the quarantine).
type EngineFaultError struct {
	Key   EngineKey
	Cause error
}

func (e *EngineFaultError) Error() string {
	return fmt.Sprintf("serve: engine %s faulted (quarantining): %v", e.Key, e.Cause)
}

func (e *EngineFaultError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrEngineFault) match.
func (e *EngineFaultError) Is(target error) bool { return target == ErrEngineFault }

// QuarantinedError reports an acquire shed by an open circuit breaker:
// the engine faulted (or failed to rebuild) recently and the pool is in
// its rebuild cooldown. RetryAfter is the remaining cooldown; HTTP maps
// this to 503 + Retry-After.
type QuarantinedError struct {
	Key        EngineKey
	RetryAfter time.Duration
	Cause      error
}

func (e *QuarantinedError) Error() string {
	return fmt.Sprintf("serve: engine %s quarantined, retry in %v", e.Key, e.RetryAfter)
}

func (e *QuarantinedError) Unwrap() error { return e.Cause }

// Is makes errors.Is(err, ErrEngineFault) match quarantine sheds too —
// both are the same condition from the client's point of view.
func (e *QuarantinedError) Is(target error) bool { return target == ErrEngineFault }

// ErrOverloaded is the sentinel all overload rejections wrap; callers
// match it with errors.Is and retry with backoff (HTTP maps it to 429).
var ErrOverloaded = errors.New("serve: overloaded")

// OverloadError reports a submission rejected by admission control: the
// submitting tenant's queue on that engine was at its quota. Overload is
// per tenant — one tenant at its limit does not shed anyone else.
type OverloadError struct {
	Tenant string // tenant whose quota rejected the submission
	Depth  int    // tenant's queue depth observed at rejection
	Limit  int    // effective quota (tenant MaxQueue, or Options.MaxQueue)
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: tenant %s queue full (%d/%d)", e.Tenant, e.Depth, e.Limit)
}

// Unwrap makes errors.Is(err, ErrOverloaded) match.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// UnknownMethodError reports a request naming a method the registry does
// not know.
type UnknownMethodError struct {
	Method string
}

func (e *UnknownMethodError) Error() string {
	return fmt.Sprintf("serve: unknown method %q (see /v1/methods)", e.Method)
}

// UnknownMatrixError reports a request naming a matrix the pool does not
// hold.
type UnknownMatrixError struct {
	Matrix string
	Known  []string
}

func (e *UnknownMatrixError) Error() string {
	return fmt.Sprintf("serve: unknown matrix %q (loaded: %v)", e.Matrix, e.Known)
}

// UnauthorizedError reports a request that failed tenant authentication
// against a keyed registry (HTTP 401).
type UnauthorizedError struct {
	Reason string
}

func (e *UnauthorizedError) Error() string {
	return fmt.Sprintf("serve: unauthorized: %s", e.Reason)
}

// DuplicateMatrixError reports a registration under a name already
// taken (HTTP 409): resident engines were built against the old
// instance, so re-registering requires deleting the matrix first.
type DuplicateMatrixError struct {
	Matrix string
}

func (e *DuplicateMatrixError) Error() string {
	return fmt.Sprintf("serve: matrix %q already registered", e.Matrix)
}

// PinnedMatrixError reports a DELETE of a matrix that still has
// referenced engines (HTTP 409): release the handles (or wait out the
// in-flight requests) and retry.
type PinnedMatrixError struct {
	Matrix string
	Key    EngineKey // one pinned engine (there may be more)
	Refs   int
}

func (e *PinnedMatrixError) Error() string {
	return fmt.Sprintf("serve: matrix %q is pinned by engine %s (%d refs)", e.Matrix, e.Key, e.Refs)
}

// DimensionError reports a request vector that does not match the
// matrix.
type DimensionError struct {
	Got, Want int
	What      string // "x", "b", or a caller-owned output: "y" (a vector) / "ys" (their count)
}

func (e *DimensionError) Error() string {
	return fmt.Sprintf("serve: %s has %d entries, matrix wants %d", e.What, e.Got, e.Want)
}
