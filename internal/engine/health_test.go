package engine

import (
	"testing"

	"deepum/internal/health"
)

// TestLadderEquivalence is the monotone-safety acceptance test: every rung
// of the degradation ladder trades speculation for safety but must never
// change WHAT the GPU computes — the ordered access stream (and therefore
// its checksum) is bit-identical from L0 (full prefetch + pre-eviction)
// down to L3 (pure demand faulting), on a clean substrate, with the
// invariant checker green throughout.
func TestLadderEquivalence(t *testing.T) {
	p := lifecycleProgram(t)
	base := lifecycleConfig(p)
	ref, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if ref.AccessChecksum == 0 {
		t.Fatal("baseline run produced no access checksum")
	}
	for l := health.L0; l <= health.L3; l++ {
		l := l
		t.Run(l.String(), func(t *testing.T) {
			cfg := lifecycleConfig(p)
			cfg.Health = health.Fixed(l)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A level pinned above L0 reports StatusDegraded by definition
			// (MaxLevel > L0); the run itself must still be clean.
			want := StatusCompleted
			if l > health.L0 {
				want = StatusDegraded
			}
			if res.Status != want {
				t.Fatalf("status %v, want %v (invariant: %v)", res.Status, want, res.Invariant)
			}
			if res.Invariant != nil {
				t.Fatalf("invariant violation at %s: %v", l, res.Invariant)
			}
			if res.AccessChecksum != ref.AccessChecksum {
				t.Fatalf("access checksum at %s = %#x, baseline %#x — degradation changed the computation",
					l, res.AccessChecksum, ref.AccessChecksum)
			}
			if res.Iterations != base.Iterations {
				t.Fatalf("completed %d iterations, want %d", res.Iterations, base.Iterations)
			}
			// Sanity on the trade itself: L3 must actually fault more than
			// L0 (it disabled all speculation), or the gates aren't wired.
			if l == health.L3 && res.FaultsPerIter <= ref.FaultsPerIter {
				t.Fatalf("L3 faults/iter %d not above L0's %d — ladder gates inert",
					res.FaultsPerIter, ref.FaultsPerIter)
			}
		})
	}
}

// wedgedLadderRun runs the lifecycle program on a link failing nine
// transfers in ten with a default health ladder attached, and returns the
// result, the ladder and the clean run's access checksum.
func wedgedLadderRun(t *testing.T) (*Result, *health.Controller, uint64) {
	t.Helper()
	p := lifecycleProgram(t)
	clean, err := Run(lifecycleConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	cfg := lifecycleConfig(p)
	cfg.Chaos = wedgedLink()
	hc := health.NewController(health.Options{})
	cfg.Health = hc
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != cfg.Iterations {
		t.Fatalf("run did not complete on the wedged link: %d/%d iterations",
			res.Iterations, cfg.Iterations)
	}
	return res, hc, clean.AccessChecksum
}

// TestLadderWedgedLink: on a link failing nine transfers in ten, the
// health ladder alone suspends speculation. It climbs to L3 (pure demand
// faulting), every iteration still completes — StatusDegraded, since the
// ladder left L0 — and the access stream matches the clean run.
func TestLadderWedgedLink(t *testing.T) {
	res, hc, clean := wedgedLadderRun(t)
	if hc.MaxLevel() != health.L3 {
		t.Fatalf("ladder peaked at %s on a wedged link, want L3", hc.MaxLevel())
	}
	if res.Status != StatusDegraded {
		t.Fatalf("status %v, want degraded (invariant: %v)", res.Status, res.Invariant)
	}
	if res.FaultsPerIter == 0 {
		t.Fatal("no demand faults while prefetching was suspended")
	}
	if res.AccessChecksum != clean {
		t.Fatalf("access checksum %#x, clean run %#x", res.AccessChecksum, clean)
	}
}

// TestLadderFlappingBounded: on the same wedged link the ladder's climb
// and any recovery are rate-bounded. Moves are single-rung and
// dwell-spaced, and consecutive recovery probes are at least one probe
// interval apart, so a flapping link cannot make the ladder oscillate.
func TestLadderFlappingBounded(t *testing.T) {
	_, hc, _ := wedgedLadderRun(t)
	trans := hc.Transitions()
	if len(trans) == 0 || hc.MaxLevel() < health.L2 {
		t.Fatalf("ladder never engaged: max %s, %d transitions", hc.MaxLevel(), len(trans))
	}
	lastProbe := int64(-1)
	for i, tr := range trans {
		d := int(tr.To) - int(tr.From)
		if d != 1 && d != -1 {
			t.Fatalf("transition %d jumps %s->%s", i, tr.FromName, tr.ToName)
		}
		if i > 0 && tr.At-trans[i-1].At < int64(health.DefaultDwell) {
			t.Fatalf("transitions %d and %d only %dns apart (dwell %dns)",
				i-1, i, tr.At-trans[i-1].At, health.DefaultDwell)
		}
		if d == -1 {
			if lastProbe >= 0 && tr.At-lastProbe < int64(health.DefaultProbeInterval) {
				t.Fatalf("recovery probes %dns apart (interval %dns)",
					tr.At-lastProbe, health.DefaultProbeInterval)
			}
			lastProbe = tr.At
		}
	}
}
