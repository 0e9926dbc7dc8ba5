package metrics

import (
	"fmt"
	"strings"
	"sync"
)

// StateTransition records one state-machine transition with the timestamp
// (nanoseconds on the owner's clock) at which it happened. The supervisor
// logs its run-state transitions here so a run's history can be audited
// after the fact.
type StateTransition struct {
	At     int64 // nanoseconds since the owner's epoch
	From   string
	To     string
	Reason string
}

// String renders the transition for logs and CLI output.
func (t StateTransition) String() string {
	return fmt.Sprintf("%dns %s->%s (%s)", t.At, t.From, t.To, t.Reason)
}

// SyncTransitionLog accumulates state transitions in occurrence order and is
// safe for concurrent use: the multi-run supervisor's workers record
// run-state transitions from many goroutines. The zero value is ready to
// use; reads on a nil log are inert.
type SyncTransitionLog struct {
	mu          sync.Mutex
	transitions []StateTransition
}

// Record appends one transition.
func (l *SyncTransitionLog) Record(at int64, from, to, reason string) {
	l.mu.Lock()
	l.transitions = append(l.transitions, StateTransition{At: at, From: from, To: to, Reason: reason})
	l.mu.Unlock()
}

// Transitions returns a copy of the recorded transitions in order, so the
// caller holds no reference into a log other goroutines keep appending to.
func (l *SyncTransitionLog) Transitions() []StateTransition {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]StateTransition(nil), l.transitions...)
}

// Len returns how many transitions were recorded.
func (l *SyncTransitionLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.transitions)
}

// Count returns how many recorded transitions went from `from` to `to`; an
// empty string matches any state on that side.
func (l *SyncTransitionLog) Count(from, to string) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var n int64
	for _, t := range l.transitions {
		if (from == "" || t.From == from) && (to == "" || t.To == to) {
			n++
		}
	}
	return n
}

// String renders the full log, one transition per line.
func (l *SyncTransitionLog) String() string {
	if l == nil {
		return "(no transitions)"
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.transitions) == 0 {
		return "(no transitions)"
	}
	var b strings.Builder
	for _, t := range l.transitions {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
