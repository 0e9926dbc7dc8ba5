package engine

import (
	"testing"

	"deepum/internal/core"
	"deepum/internal/obs"
	"deepum/internal/sim"
)

// tracedRun runs the oversubscribed chaos workload (BERT Large b16, scale
// 64) under DeepUM with an obs recorder attached and returns its analysis.
func tracedRun(t *testing.T, warmup int) *obs.Analysis {
	t.Helper()
	rec := obs.NewRecorder(1 << 21)
	_, err := Run(Config{
		Params:        sim.DefaultParams().Scale(64),
		Program:       chaosProgram(t),
		Policy:        PolicyDeepUM,
		DriverOptions: core.DefaultOptions(),
		Iterations:    2,
		Warmup:        warmup,
		Seed:          1,
		Obs:           rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder overwrote %d events", rec.Dropped())
	}
	return obs.Analyze(rec.Events())
}

// TestKernelTableIntegration: a traced DeepUM run emits every memory event
// kind the per-kernel table reads, and the table's columns add up to the
// run-wide totals.
func TestKernelTableIntegration(t *testing.T) {
	a := tracedRun(t, 2)
	if a.FaultBatches == 0 || a.PrefetchTransfers == 0 || a.Stalls == 0 ||
		a.EvictCritical+a.EvictBackground+a.EvictInvalidated == 0 {
		t.Fatalf("traced run missing memory events: %d batches, %d prefetches, %d stalls, %d/%d/%d evictions",
			a.FaultBatches, a.PrefetchTransfers, a.Stalls, a.EvictCritical, a.EvictBackground, a.EvictInvalidated)
	}
	if len(a.PerKernel) == 0 {
		t.Fatal("empty per-kernel table")
	}
	var launches, pages, prefetches, stall int64
	for _, k := range a.PerKernel {
		launches += k.Launches
		pages += k.FaultPages
		prefetches += k.Prefetches
		stall += k.StallNs
	}
	if launches != a.Kernels || pages != a.FaultPages || prefetches != a.PrefetchTransfers || stall != a.StallNs {
		t.Fatalf("table totals %d launches, %d pages, %d prefetches, %d ns stall; run %d, %d, %d, %d",
			launches, pages, prefetches, stall, a.Kernels, a.FaultPages, a.PrefetchTransfers, a.StallNs)
	}
}

// TestKernelTablePinned pins the per-kernel launches, fault pages and stall
// of one fixed run (BERT Large b16, scale 64, DeepUM, 3 warm-up + 2
// measured iterations, seed 1), in table order. The rows are the ones the
// engine's earlier dedicated trace recorder reported for the same run.
func TestKernelTablePinned(t *testing.T) {
	type row struct {
		kernel              string
		launches, pages, ns int64
	}
	want := []row{
		{"attn_bwd", 120, 81929, 4746280},
		{"mlp_bwd", 120, 40583, 1009560},
		{"attn_scores", 120, 39300, 0},
		{"softmax_fwd", 120, 38415, 0},
		{"mlp_fc1", 120, 16148, 0},
		{"gelu_fwd", 120, 16095, 0},
		{"qkv_gemm", 120, 15890, 0},
		{"softmax_xent", 5, 5585, 0},
		{"lm_head_fwd", 5, 4293, 0},
		{"attn_proj", 120, 2857, 0},
		{"qkv_bwd", 120, 2674, 0},
		{"attn_ctx", 120, 2460, 0},
		{"layernorm2_fwd", 120, 2460, 0},
		{"layernorm_fwd", 120, 2460, 0},
		{"mlp_fc2", 120, 2460, 0},
		{"layer18.adam", 5, 1920, 0},
		{"layer19.adam", 5, 1920, 0},
		{"layer20.adam", 5, 1920, 0},
		{"layer21.adam", 5, 1920, 0},
		{"layer22.adam", 5, 1920, 0},
		{"layer23.adam", 5, 1920, 0},
		{"layer17.adam", 5, 1536, 0},
		{"layer10.adam", 5, 768, 0},
		{"layer11.adam", 5, 768, 0},
		{"layer12.adam", 5, 768, 0},
		{"layer13.adam", 5, 768, 0},
		{"layer14.adam", 5, 768, 0},
		{"layer15.adam", 5, 768, 0},
		{"layer16.adam", 5, 768, 0},
		{"layer9.adam", 5, 768, 0},
		{"embedding_fwd", 5, 687, 0},
		{"emb.adam", 5, 512, 0},
		{"embedding_bwd", 5, 477, 0},
		{"lm_head_bwd", 5, 442, 0},
		{"layer0.adam", 5, 384, 0},
		{"layer1.adam", 5, 384, 0},
		{"layer2.adam", 5, 384, 0},
		{"layer3.adam", 5, 384, 0},
		{"layer4.adam", 5, 384, 0},
		{"layer5.adam", 5, 384, 0},
		{"layer6.adam", 5, 384, 0},
		{"layer7.adam", 5, 384, 0},
		{"layer8.adam", 5, 384, 0},
	}
	a := tracedRun(t, 3)
	if len(a.PerKernel) != len(want) {
		t.Fatalf("table has %d kernels, want %d", len(a.PerKernel), len(want))
	}
	for i, k := range a.PerKernel {
		if got := (row{k.Kernel, k.Launches, k.FaultPages, k.StallNs}); got != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, got, want[i])
		}
	}
}

// TestKernelTableCountsEveryEviction: the table's eviction column covers
// critical-path, background (pre-evictor) and invalidated victims alike.
func TestKernelTableCountsEveryEviction(t *testing.T) {
	a := tracedRun(t, 3)
	var evicted int64
	for _, k := range a.PerKernel {
		evicted += k.Evictions
	}
	if want := a.EvictCritical + a.EvictBackground + a.EvictInvalidated; evicted != want {
		t.Fatalf("table counts %d evictions, analysis %d (%d critical, %d background, %d invalidated)",
			evicted, want, a.EvictCritical, a.EvictBackground, a.EvictInvalidated)
	}
	if a.EvictBackground == 0 || a.EvictInvalidated == 0 {
		t.Fatalf("run exercised no background (%d) or invalidated (%d) evictions",
			a.EvictBackground, a.EvictInvalidated)
	}
}
