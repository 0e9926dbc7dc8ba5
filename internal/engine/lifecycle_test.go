package engine

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"deepum/internal/chaos"
	"deepum/internal/core"
	"deepum/internal/correlation"
	"deepum/internal/models"
	"deepum/internal/sim"
	"deepum/internal/workload"
)

// countdownCtx is a context whose Err flips to the configured error after a
// fixed number of Err calls — a deterministic stand-in for "the supervisor
// cancelled us mid-run", since the engine polls Err at every event boundary.
type countdownCtx struct {
	context.Context
	calls  int
	fireAt int
	err    error
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls >= c.fireAt {
		return c.err
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} { return nil }

func lifecycleProgram(t *testing.T) *workload.Program {
	t.Helper()
	p, err := models.Build(models.Spec{Model: "bert-large", Dataset: "wikitext"}, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func lifecycleConfig(p *workload.Program) Config {
	return Config{
		Params:        sim.DefaultParams().Scale(64),
		Program:       p,
		Policy:        PolicyDeepUM,
		DriverOptions: core.DefaultOptions(),
		Warmup:        2,
		Iterations:    2,
		Seed:          1,
	}
}

// TestRunContextPreCancelled: a context cancelled before the run starts stops
// it at the very first event — zero iterations, StatusCancelled, nil error.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, lifecycleConfig(lifecycleProgram(t)))
	if err != nil {
		t.Fatalf("pre-cancelled run errored: %v", err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v, want cancelled", res.Status)
	}
	if res.Iterations != 0 || len(res.IterStats) != 0 {
		t.Fatalf("pre-cancelled run reported %d iterations, %d iter stats",
			res.Iterations, len(res.IterStats))
	}
}

// TestRunContextCancelMidRun: a cancellation landing mid-run (after a fixed
// number of event-boundary polls) returns the partial measurements with
// StatusCancelled, leaves consistent state (the invariant checker runs on the
// partial iteration), and leaks no goroutines — the engine is synchronous,
// and cancellation must not change that.
func TestRunContextCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx := &countdownCtx{Context: context.Background(), fireAt: 2000, err: context.Canceled}
	res, err := RunContext(ctx, lifecycleConfig(lifecycleProgram(t)))
	if err != nil {
		t.Fatalf("cancelled run errored: %v", err)
	}
	if res.Status != StatusCancelled {
		t.Fatalf("status = %v, want cancelled", res.Status)
	}
	if res.Iterations >= 2 {
		t.Fatalf("cancelled run completed all %d measured iterations", res.Iterations)
	}
	if res.Invariant != nil {
		t.Fatalf("cancellation corrupted state: %v", res.Invariant)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked across cancellation: %d before, %d after", before, g)
	}
}

// TestRunContextDeadlineError: a context whose Err reports DeadlineExceeded
// classifies the stop as deadline-exceeded, not cancelled.
func TestRunContextDeadlineError(t *testing.T) {
	ctx := &countdownCtx{Context: context.Background(), fireAt: 2000, err: context.DeadlineExceeded}
	res, err := RunContext(ctx, lifecycleConfig(lifecycleProgram(t)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDeadlineExceeded {
		t.Fatalf("status = %v, want deadline-exceeded", res.Status)
	}
}

// TestVirtualDeadlineDiscardsPrefetches: a virtual-time deadline calibrated
// to land inside a measured iteration (tables warm, prefetch queue busy)
// stops the run deterministically: demand work has drained at the event
// boundary, and the queued speculation is discarded and counted.
func TestVirtualDeadlineDiscardsPrefetches(t *testing.T) {
	p := lifecycleProgram(t)
	clean, err := Run(lifecycleConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.IterStats) != 4 {
		t.Fatalf("calibration run has %d iter stats, want 4", len(clean.IterStats))
	}
	cfg := lifecycleConfig(p)
	cfg.Deadline = clean.IterStats[0].Time + clean.IterStats[1].Time + clean.IterStats[2].Time/2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusDeadlineExceeded {
		t.Fatalf("status = %v, want deadline-exceeded", res.Status)
	}
	if len(res.IterStats) != 2 {
		t.Fatalf("run past a mid-iteration-2 deadline completed %d iterations, want 2", len(res.IterStats))
	}
	if res.DiscardedPrefetches == 0 {
		t.Fatal("no queued prefetches discarded at a mid-iteration stop (queue should be busy)")
	}
	if res.Invariant != nil {
		t.Fatalf("deadline stop corrupted state: %v", res.Invariant)
	}
	// Determinism: the virtual deadline cuts at the same event every time.
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.TotalTime != res.TotalTime || res2.DiscardedPrefetches != res.DiscardedPrefetches ||
		res2.Handler.PageFaults != res.Handler.PageFaults {
		t.Fatal("virtual deadline stop is not deterministic")
	}
}

// wedgedLink is a link that fails nine transfers in ten with no cap on
// consecutive failures — far past anything a builtin scenario injects.
func wedgedLink() *chaos.Injector {
	return chaos.NewInjector(chaos.Scenario{
		Name:                "wedged-link",
		TransferFailProb:    0.9,
		MaxConsecutiveFails: 64,
	}, 1)
}

// TestWedgedLinkWithoutLadder: with no health controller nothing suspends
// speculation, so on a wedged link every prefetch retries, gives up and
// falls back to demand faulting. The run is correct, only slower: every
// iteration completes, the access stream matches the clean run, and —
// with no ladder to leave L0 and no invariant violated — it reports
// StatusCompleted.
func TestWedgedLinkWithoutLadder(t *testing.T) {
	p := lifecycleProgram(t)
	clean, err := Run(lifecycleConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	cfg := lifecycleConfig(p)
	cfg.Chaos = wedgedLink()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCompleted {
		t.Fatalf("status = %v, want completed (invariant: %v)", res.Status, res.Invariant)
	}
	if res.Iterations != cfg.Iterations {
		t.Fatalf("completed %d measured iterations, want %d", res.Iterations, cfg.Iterations)
	}
	if res.Chaos.PrefetchGiveUps == 0 {
		t.Fatalf("no prefetch gave up on a 90%%-failure link: %+v", res.Chaos)
	}
	if res.AccessChecksum != clean.AccessChecksum {
		t.Fatalf("access checksum %#x, clean run %#x", res.AccessChecksum, clean.AccessChecksum)
	}
}

// TestFlakyLinkCompletes: the builtin chaos scenarios degrade via retries
// without giving up on prefetching — a flaky-link run with no ladder still
// finishes cleanly.
func TestFlakyLinkCompletes(t *testing.T) {
	cfg := lifecycleConfig(lifecycleProgram(t))
	sc, err := chaos.ByName("flaky-link")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = chaos.NewInjector(sc, 1)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusCompleted {
		t.Fatalf("status = %v, want completed", res.Status)
	}
}

// TestCheckpointKillResumeEquivalence is the acceptance test for warm-state
// checkpoint/resume: a run killed mid-iteration checkpoints its correlation
// tables; a resumed run (one warmup iteration to rebuild residency) produces
// a per-iteration trace — faults, prefetches issued, prefetch hits, even
// iteration time — identical to the uninterrupted run's from its second
// post-resume iteration onward.
func TestCheckpointKillResumeEquivalence(t *testing.T) {
	p, err := models.Build(models.Spec{Model: "dcgan", Dataset: "celeba"}, 1400, 64)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Params:        sim.DefaultParams().Scale(64),
		Program:       p,
		Policy:        PolicyDeepUM,
		DriverOptions: core.DefaultOptions(),
		Seed:          1,
	}

	// The uninterrupted reference: 2 warmup + 4 measured iterations.
	ucfg := base
	ucfg.Warmup, ucfg.Iterations = 2, 4
	u, err := Run(ucfg)
	if err != nil {
		t.Fatal(err)
	}
	if u.Status != StatusCompleted || len(u.IterStats) != 6 {
		t.Fatalf("reference run: status %v, %d iter stats", u.Status, len(u.IterStats))
	}

	// Kill a second run mid-iteration-2 via a virtual deadline (deterministic,
	// unaligned to an iteration boundary), then checkpoint its tables through
	// the full save/load path.
	acfg := base
	acfg.Warmup, acfg.Iterations = 2, 4
	acfg.Deadline = u.IterStats[0].Time + u.IterStats[1].Time + u.IterStats[2].Time/2
	a, err := Run(acfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status != StatusDeadlineExceeded {
		t.Fatalf("killed run status = %v", a.Status)
	}
	if len(a.IterStats) >= len(u.IterStats) {
		t.Fatalf("killed run completed %d iterations, reference %d", len(a.IterStats), len(u.IterStats))
	}
	var ckpt bytes.Buffer
	if err := correlation.WriteCheckpoint(&ckpt, a.Tables); err != nil {
		t.Fatal(err)
	}
	restored, err := correlation.ReadCheckpoint(&ckpt)
	if err != nil {
		t.Fatal(err)
	}

	// Resume from the checkpoint: one warmup iteration rebuilds residency.
	bcfg := base
	bcfg.DriverOptions.WarmTables = restored
	bcfg.Warmup, bcfg.Iterations = 1, 3
	b, err := Run(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Status != StatusCompleted || len(b.IterStats) != 4 {
		t.Fatalf("resumed run: status %v, %d iter stats", b.Status, len(b.IterStats))
	}

	// Equivalence from the resumed run's iteration 2 onward: B[2..3] must be
	// identical to the uninterrupted steady state U[4..5], field by field.
	for i := 2; i < len(b.IterStats); i++ {
		got, want := b.IterStats[i], u.IterStats[i+2]
		if got.Faults != want.Faults || got.PrefetchIssued != want.PrefetchIssued ||
			got.PrefetchUseful != want.PrefetchUseful || got.Time != want.Time {
			t.Fatalf("resumed iteration %d diverges from reference: %+v vs %+v", i, got, want)
		}
	}
	// And the steady state is not vacuous: the workload faults every iteration.
	if last := b.IterStats[len(b.IterStats)-1]; last.Faults == 0 {
		t.Fatal("steady state has zero faults; the equivalence check checks nothing")
	}
}
