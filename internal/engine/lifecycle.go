package engine

import (
	"context"
	"errors"

	"deepum/internal/sim"
)

// RunStatus classifies how a simulated training run ended. A run that did
// not complete cleanly still returns a (partial) *Result with a nil error —
// the status, not the error, tells a supervisor why it stopped, so partial
// measurements are never thrown away.
type RunStatus uint8

const (
	// StatusCompleted: every configured iteration ran and no degradation was
	// observed.
	StatusCompleted RunStatus = iota
	// StatusCancelled: the supervising context was cancelled (or a chaos
	// scenario injected a supervisor kill); the run stopped at the next
	// simulated event, drained demand work, and discarded prefetches.
	StatusCancelled
	// StatusDeadlineExceeded: the context deadline or the virtual-time
	// budget (Config.Deadline) expired mid-run.
	StatusDeadlineExceeded
	// StatusDegraded: the run completed, but not cleanly — the health
	// ladder (Config.Health) left L0 at least once, or the invariant checker
	// reported a violation (Result.Invariant). Measurements exist but a
	// supervisor should treat them with suspicion.
	StatusDegraded
)

// Interrupted reports whether the run was stopped before completing its
// configured iterations (supervisor cancellation or a deadline) — the cue
// for a multi-run supervisor to stop resubmitting continuation chunks and,
// if warm state was captured, to resume from it later. Degraded runs ran
// to completion and are NOT interrupted.
func (s RunStatus) Interrupted() bool {
	return s == StatusCancelled || s == StatusDeadlineExceeded
}

// Terminal reports whether s is a defined end-of-run classification. Every
// RunStatus a finished run carries is terminal; the method exists so callers
// holding a status of unknown provenance (deserialized, zero-valued struct
// fields) can distinguish "this run ended as X" from garbage.
func (s RunStatus) Terminal() bool {
	switch s {
	case StatusCompleted, StatusCancelled, StatusDeadlineExceeded, StatusDegraded:
		return true
	}
	return false
}

func (s RunStatus) String() string {
	switch s {
	case StatusCompleted:
		return "completed"
	case StatusCancelled:
		return "cancelled"
	case StatusDeadlineExceeded:
		return "deadline-exceeded"
	case StatusDegraded:
		return "degraded"
	}
	return "unknown"
}

// IterStat is the per-iteration slice of a run's measurements, recorded for
// warmup and measured iterations alike. It is the unit of the
// checkpoint/resume equivalence guarantee: a resumed run's IterStats match
// the uninterrupted run's from the second post-resume iteration onward.
type IterStat struct {
	// Warmup marks iterations that ran before the measurement window.
	Warmup bool
	Time   sim.Duration
	// Faults is the page-fault count of this iteration.
	Faults int64
	// PrefetchIssued / PrefetchUseful are the driver's prefetch commands
	// issued and the prefetched blocks a kernel subsequently hit during this
	// iteration (zero for non-DeepUM policies).
	PrefetchIssued int64
	PrefetchUseful int64
}

// errRunInterrupted unwinds the kernel -> iteration -> run call chain when
// the supervisor (context, virtual deadline, or injected cancel) ends the
// run early. It never escapes the engine: run() converts it into a partial
// Result tagged with the RunStatus the interrupt check recorded.
var errRunInterrupted = errors.New("engine: run interrupted")

// interrupted reports whether the run should stop now, recording why in
// e.status on the first positive answer. It is checked between simulated
// events — before each iteration, each kernel launch, and each fault cycle —
// so a cancelled run stops at the next event boundary with consistent state.
func (e *exec) interrupted() bool {
	if e.status != StatusCompleted {
		return true
	}
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				e.status = StatusDeadlineExceeded
			} else {
				e.status = StatusCancelled
			}
			return true
		}
	}
	if e.deadline > 0 && e.now >= e.deadline {
		e.status = StatusDeadlineExceeded
		return true
	}
	return false
}
