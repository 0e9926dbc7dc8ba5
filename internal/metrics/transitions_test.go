package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestTransitionLogRecordAndCount(t *testing.T) {
	var l SyncTransitionLog
	if l.Len() != 0 || l.Transitions() != nil || l.Count("", "") != 0 {
		t.Fatal("zero-value log not empty")
	}
	l.Record(100, "queued", "running", "worker")
	l.Record(600, "running", "suspended", "memory pressure")
	l.Record(650, "suspended", "running", "resumed")
	l.Record(1200, "running", "suspended", "memory pressure")
	l.Record(1250, "suspended", "failed", "checkpoint lost")

	if l.Len() != 5 {
		t.Fatalf("Len = %d, want 5", l.Len())
	}
	tr := l.Transitions()
	for i := 1; i < len(tr); i++ {
		if tr[i].At < tr[i-1].At {
			t.Fatalf("transitions out of order at %d: %v", i, tr)
		}
	}
	if got := l.Count("", "running"); got != 2 {
		t.Fatalf("Count(any->running) = %d, want 2", got)
	}
	if got := l.Count("suspended", ""); got != 2 {
		t.Fatalf("Count(suspended->any) = %d, want 2", got)
	}
	if got := l.Count("queued", "running"); got != 1 {
		t.Fatalf("Count(queued->running) = %d, want 1", got)
	}
	if got := l.Count("running", "failed"); got != 0 {
		t.Fatalf("Count(running->failed) = %d, want 0", got)
	}
}

// TestTransitionLogNilSafe: a nil log renders as empty
// (TestSyncTransitionLogNil covers the other reads).
func TestTransitionLogNilSafe(t *testing.T) {
	var l *SyncTransitionLog
	if l.String() != "(no transitions)" {
		t.Fatalf("nil String = %q", l.String())
	}
}

func TestTransitionLogString(t *testing.T) {
	var l SyncTransitionLog
	if l.String() != "(no transitions)" {
		t.Fatalf("empty String = %q", l.String())
	}
	l.Record(42, "running", "failed", "worker panic")
	s := l.String()
	for _, want := range []string{"42ns", "running->failed", "worker panic"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String %q missing %q", s, want)
		}
	}
}

// TestSyncTransitionLogConcurrent hammers the concurrent log from many
// goroutines (run under -race in CI) and checks nothing is lost and
// snapshots are copies.
func TestSyncTransitionLogConcurrent(t *testing.T) {
	var l SyncTransitionLog
	const writers, each = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Record(int64(i), "queued", "running", "worker")
			}
		}(w)
	}
	// Concurrent reads while writers run.
	for i := 0; i < 10; i++ {
		_ = l.Transitions()
		_ = l.Count("queued", "running")
	}
	wg.Wait()
	if l.Len() != writers*each {
		t.Fatalf("Len = %d, want %d", l.Len(), writers*each)
	}
	if l.Count("queued", "running") != writers*each {
		t.Fatalf("Count = %d, want %d", l.Count("queued", "running"), writers*each)
	}
	snap := l.Transitions()
	snap[0].From = "mutated"
	if l.Transitions()[0].From != "queued" {
		t.Fatal("Transitions returned a shared slice, not a copy")
	}
}

// TestSyncTransitionLogNil: nil reads are inert.
func TestSyncTransitionLogNil(t *testing.T) {
	var l *SyncTransitionLog
	if l.Transitions() != nil || l.Len() != 0 || l.Count("", "") != 0 || l.Count("a", "b") != 0 {
		t.Fatal("nil SyncTransitionLog reads are not inert")
	}
}
