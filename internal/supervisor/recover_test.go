package supervisor

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestKillRestartEquivalence is the crash-recovery acceptance test: a
// supervisor killed mid-flight (journal intact) is reopened on the same
// journal, which must replay to the same run set — finished runs stay
// finished (never re-executed), interrupted runs resume from their latest
// journaled checkpoint, queued runs start cold — and every submitted run
// reaches a terminal status with none lost and none duplicated.
func TestKillRestartEquivalence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.journal")

	// Phase 1: six runs against 2 workers.
	//   seeds 1,2: complete before the kill
	//   seeds 3,4: checkpoint twice, then hang until killed
	//   seeds 5,6: still queued at the kill
	checkpointed := map[int64]chan struct{}{3: make(chan struct{}), 4: make(chan struct{})}
	var closeOnce sync.Once // paranoia against double-start; must not trigger
	phase1 := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		switch spec.Seed {
		case 1, 2:
			return Outcome{Status: string(StateCompleted), Iterations: spec.Iterations}, nil
		case 3, 4:
			progress([]byte(fmt.Sprintf("ck-%d-1", spec.Seed)))
			progress([]byte(fmt.Sprintf("ck-%d-2", spec.Seed)))
			close(checkpointed[spec.Seed])
			<-ctx.Done()
			return Outcome{Status: string(StateCancelled)}, nil
		default:
			closeOnce.Do(func() { t.Errorf("queued run %d started before the kill", spec.Seed) })
			return Outcome{Status: string(StateCompleted)}, nil
		}
	})
	s1, err := New(Config{Runner: phase1, Workers: 2, QueueDepth: 8, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[int64]uint64{}
	for seed := int64(1); seed <= 2; seed++ {
		id, err := s1.Submit(RunSpec{Model: "bert-base", Batch: 8, Iterations: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids[seed] = id
		if _, err := s1.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(3); seed <= 6; seed++ {
		id, err := s1.Submit(RunSpec{Model: "bert-base", Batch: 8, Iterations: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids[seed] = id
	}
	<-checkpointed[3]
	<-checkpointed[4]
	s1.Kill()

	// Simulate the kill tearing a partially-written frame onto the tail:
	// replay must truncate it and lose nothing that was fsync'd.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Phase 2: restart on the same journal. The runner records what it is
	// asked to execute and with which resume bytes.
	var mu sync.Mutex
	executed := map[int64][]byte{}
	phase2 := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		mu.Lock()
		if _, dup := executed[spec.Seed]; dup {
			t.Errorf("run seed %d executed twice after restart", spec.Seed)
		}
		executed[spec.Seed] = resume
		mu.Unlock()
		return Outcome{Status: string(StateCompleted)}, nil
	})
	s2, err := New(Config{Runner: phase2, Workers: 2, QueueDepth: 8, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Recovered != 4 {
		t.Fatalf("recovered %d runs from journal, want 4 (2 interrupted + 2 queued)", st.Recovered)
	}

	// Every submitted run reaches a terminal status.
	deadline := time.Now().Add(10 * time.Second)
	for {
		allTerminal := true
		for _, info := range s2.List() {
			if !info.State.Terminal() {
				allTerminal = false
			}
		}
		if allTerminal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runs still non-terminal after restart: %+v", s2.List())
		}
		time.Sleep(time.Millisecond)
	}
	drain(t, s2)

	// No run lost, none duplicated.
	runs := s2.List()
	if len(runs) != 6 {
		t.Fatalf("restarted supervisor sees %d runs, want 6", len(runs))
	}
	seen := map[uint64]bool{}
	for _, info := range runs {
		if seen[info.ID] {
			t.Fatalf("run %d duplicated", info.ID)
		}
		seen[info.ID] = true
	}

	// Finished runs stayed finished and were not re-executed.
	for seed := int64(1); seed <= 2; seed++ {
		info, err := s2.Get(ids[seed])
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateCompleted || info.Attempts != 1 {
			t.Fatalf("pre-kill completed run %d: state %s attempts %d", seed, info.State, info.Attempts)
		}
		mu.Lock()
		_, reran := executed[seed]
		mu.Unlock()
		if reran {
			t.Fatalf("completed run %d was re-executed after restart", seed)
		}
	}
	// Interrupted runs resumed from their LATEST checkpoint.
	for seed := int64(3); seed <= 4; seed++ {
		info, err := s2.Get(ids[seed])
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateCompleted || !info.Resumed || info.Attempts != 2 {
			t.Fatalf("interrupted run %d: state %s resumed %v attempts %d", seed, info.State, info.Resumed, info.Attempts)
		}
		mu.Lock()
		resume := executed[seed]
		mu.Unlock()
		if want := fmt.Sprintf("ck-%d-2", seed); string(resume) != want {
			t.Fatalf("run %d resumed from %q, want latest checkpoint %q", seed, resume, want)
		}
	}
	// Queued runs started cold.
	for seed := int64(5); seed <= 6; seed++ {
		info, err := s2.Get(ids[seed])
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateCompleted || info.Resumed || info.Attempts != 1 {
			t.Fatalf("queued run %d: state %s resumed %v attempts %d", seed, info.State, info.Resumed, info.Attempts)
		}
		mu.Lock()
		resume, ran := executed[seed]
		mu.Unlock()
		if !ran || resume != nil {
			t.Fatalf("queued run %d: ran %v resume %q, want cold start", seed, ran, resume)
		}
	}
}

// TestRestartIdempotent: replaying a journal whose runs all finished
// re-admits nothing and re-executes nothing.
func TestRestartIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.journal")
	s1, err := New(Config{Runner: instantRunner(), Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		id, err := s1.Submit(RunSpec{Model: "bert-base", Batch: 8, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, s1)

	booby := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		if spec.Model != "new" {
			t.Errorf("fully-finished journal re-executed run seed %d", spec.Seed)
		}
		return Outcome{Status: string(StateCompleted)}, nil
	})
	s2, err := New(Config{Runner: booby, Workers: 2, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Recovered != 0 || st.Terminal != 5 {
		t.Fatalf("stats after clean restart = %+v", st)
	}
	// New submissions continue the ID sequence past the replayed ones and
	// do execute.
	id, err := s2.Submit(RunSpec{Model: "new", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if id != 6 {
		t.Fatalf("post-restart ID = %d, want 6", id)
	}
	info, err := s2.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCompleted {
		t.Fatalf("post-restart run state = %s", info.State)
	}
	drain(t, s2)
}

// TestTerminalRunsReleaseCheckpoints: a finished run's checkpoints live in
// the journal, not in the supervisor's memory. After N completed
// CheckpointEvery runs, no terminal run holds checkpoint bytes — neither as
// resume state nor on its outcome — and a kill-restart on the same journal
// still replays correctly: finished runs stay finished with their
// checkpoint count, and an interrupted run resumes from its latest
// checkpoint.
func TestTerminalRunsReleaseCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.journal")
	const n = 6
	blob := func(seed int64, chunk int) []byte {
		b := make([]byte, 64<<10)
		copy(b, fmt.Sprintf("ck-%d-%d", seed, chunk))
		return b
	}
	hung := make(chan struct{})
	phase1 := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		chunks := spec.Iterations / spec.CheckpointEvery
		for c := 1; c < chunks; c++ {
			progress(blob(spec.Seed, c))
		}
		if spec.Seed > n {
			close(hung)
			<-ctx.Done()
			return Outcome{Status: string(StateCancelled)}, nil
		}
		return Outcome{Status: string(StateCompleted), Iterations: spec.Iterations, Checkpoint: blob(spec.Seed, chunks)}, nil
	})
	s1, err := New(Config{Runner: phase1, Workers: 2, QueueDepth: 16, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	spec := func(seed int64) RunSpec {
		return RunSpec{Model: "bert-base", Batch: 8, Iterations: 4, CheckpointEvery: 1, Seed: seed}
	}
	var done []uint64
	for seed := int64(1); seed <= n; seed++ {
		id, err := s1.Submit(spec(seed))
		if err != nil {
			t.Fatal(err)
		}
		done = append(done, id)
	}
	for _, id := range done {
		info, err := s1.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateCompleted || info.Checkpoints != 4 {
			t.Fatalf("run %d: state %s, %d checkpoints, want completed with 4", id, info.State, info.Checkpoints)
		}
		if info.Outcome == nil {
			t.Fatalf("finished run %d has no outcome", id)
		}
		if info.Outcome.Checkpoint != nil {
			t.Fatalf("finished run %d still carries %d checkpoint bytes on its outcome", id, len(info.Outcome.Checkpoint))
		}
	}
	s1.mu.Lock()
	for _, id := range done {
		if r := s1.runs[id]; len(r.resume) != 0 {
			s1.mu.Unlock()
			t.Fatalf("terminal run %d holds %d bytes of resume state", id, len(r.resume))
		}
	}
	s1.mu.Unlock()

	interrupted, err := s1.Submit(spec(n + 1))
	if err != nil {
		t.Fatal(err)
	}
	<-hung
	s1.Kill()

	var mu sync.Mutex
	executed := map[int64][]byte{}
	phase2 := RunnerFunc(func(ctx context.Context, spec RunSpec, resume []byte, progress func([]byte)) (Outcome, error) {
		mu.Lock()
		executed[spec.Seed] = resume
		mu.Unlock()
		return Outcome{Status: string(StateCompleted), Iterations: spec.Iterations}, nil
	})
	s2, err := New(Config{Runner: phase2, Workers: 2, QueueDepth: 16, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Recovered != 1 {
		t.Fatalf("recovered %d runs from the journal, want 1 (the interrupted one)", st.Recovered)
	}
	info, err := s2.Wait(interrupted)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCompleted || !info.Resumed {
		t.Fatalf("interrupted run: state %s resumed %v", info.State, info.Resumed)
	}
	drain(t, s2)
	mu.Lock()
	defer mu.Unlock()
	if len(executed) != 1 {
		t.Fatalf("restart executed %d runs, want only the interrupted one", len(executed))
	}
	if want := blob(n+1, 3); string(executed[n+1]) != string(want) {
		t.Fatalf("interrupted run resumed from %.12q, want its latest checkpoint %.12q", executed[n+1], want)
	}
	for _, id := range done {
		info, err := s2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != StateCompleted || info.Checkpoints != 4 || info.Attempts != 1 {
			t.Fatalf("finished run %d after restart: state %s, %d checkpoints, %d attempts",
				id, info.State, info.Checkpoints, info.Attempts)
		}
	}
}
