// Command deepum-sim runs a single simulated training run of one model under
// one memory-management system and prints its measurements.
//
//	deepum-sim -model bert-large -batch 16 -system deepum
//	deepum-sim -model resnet152 -batch 1280 -system um -scale 16
//	deepum-sim -model gpt2-xl -batch 5 -system deepum -degree 64
//	deepum-sim -model bert-large -batch 16 -checkpoint warm.ckpt
//	deepum-sim -model bert-large -batch 16 -resume warm.ckpt -warmup 1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"deepum"
)

func main() {
	var (
		model   = flag.String("model", "bert-large", "model name (see -models)")
		dataset = flag.String("dataset", "", "dataset variant (cola, cifar10, ...)")
		batch   = flag.Int64("batch", 16, "batch size")
		system  = flag.String("system", "deepum", "memory system (see -systems)")
		scale   = flag.Int64("scale", 8, "size divisor: 1 = paper-sized")
		iters   = flag.Int("iters", 4, "measured iterations")
		warmup  = flag.Int("warmup", 3, "warmup iterations")
		degree  = flag.Int("degree", 32, "prefetch degree N (deepum only)")
		gpu16   = flag.Bool("v100-16g", false, "use the 16 GiB V100 configuration")
		seed    = flag.Int64("seed", 1, "irregular-access seed")
		chaosSc = flag.String("chaos", "", "fault-injection scenario (see -chaos-list)")
		chaosSd = flag.Int64("chaos-seed", 0, "injection seed (0 reuses -seed)")
		healthF = flag.Bool("health", false, "enable the closed-loop health controller (degradation ladder; UM-side systems only)")
		timeout = flag.Duration("timeout", 0, "wall-clock bound; an expired run returns its partial measurements")
		deadln  = flag.Duration("deadline", 0, "virtual-time bound (deterministic under a fixed seed)")
		ckpt    = flag.String("checkpoint", "", "write the learned correlation tables here after the run (deepum only)")
		trace   = flag.String("trace", "", "write a Chrome trace-event JSON of the run here (open in Perfetto; UM-side systems only)")
		resume  = flag.String("resume", "", "seed the driver from a checkpoint written by -checkpoint (deepum only)")
		policyF = flag.String("policy", "", "prefetch policy (see -policy-list; empty = correlation)")
		listM   = flag.Bool("models", false, "list model names and exit")
		listS   = flag.Bool("systems", false, "list system names and exit")
		listC   = flag.Bool("chaos-list", false, "list chaos scenarios and exit")
		listP   = flag.Bool("policy-list", false, "list prefetch policies and exit")
	)
	flag.Parse()

	if *listM {
		for _, m := range deepum.Models() {
			fmt.Println(m)
		}
		return
	}
	if *listS {
		for _, s := range deepum.Systems() {
			fmt.Println(s)
		}
		return
	}
	if *listC {
		for _, sc := range deepum.ChaosScenarios() {
			fmt.Printf("%-18s %s\n", sc.Name, sc.Description)
		}
		return
	}
	if *listP {
		for _, p := range deepum.Policies() {
			fmt.Printf("%-14s %s\n", p.Name, p.Summary)
		}
		return
	}

	cfg := deepum.DefaultConfig()
	cfg.System = deepum.System(*system)
	cfg.Scale = *scale
	cfg.Iterations = *iters
	cfg.Warmup = *warmup
	cfg.Seed = *seed
	cfg.Driver.Degree = *degree
	cfg.Chaos = *chaosSc
	cfg.ChaosSeed = *chaosSd
	cfg.Policy = *policyF
	cfg.Deadline = deepum.Duration(*deadln)
	if *gpu16 {
		cfg.Machine = deepum.V100_16GB()
	}
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st, err := deepum.LoadPolicyCheckpoint(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "resume %s: %v\n", *resume, err)
			os.Exit(1)
		}
		cfg.ResumeState = st
	}
	if *trace != "" {
		cfg.Observe = deepum.NewObserver(deepum.TraceOptions{})
	}
	if *healthF {
		cfg.Health = &deepum.HealthOptions{}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := deepum.TrainContext(ctx, deepum.Workload{Model: *model, Dataset: *dataset, Batch: *batch}, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *ckpt != "" {
		st := deepum.PolicyCheckpointOf(res)
		if st == nil {
			fmt.Fprintf(os.Stderr, "-checkpoint: system %s has no prefetch-policy state to save\n", res.System)
			os.Exit(1)
		}
		f, err := os.Create(*ckpt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := deepum.SavePolicyCheckpoint(f, st); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint %s: %v\n", *ckpt, err)
			os.Exit(1)
		}
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := cfg.Observe.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace %s: %v\n", *trace, err)
			os.Exit(1)
		}
	}
	prog, err := deepum.BuildProgram(deepum.Workload{Model: *model, Dataset: *dataset, Batch: *batch}, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("model      %s (dataset %q, batch %d, scale 1/%d)\n", *model, *dataset, *batch, *scale)
	fmt.Printf("system     %s\n", res.System)
	if res.Status != deepum.StatusCompleted {
		fmt.Printf("status     %s (%d/%d measured iterations; %d queued prefetches discarded)\n",
			res.Status, res.Iterations, *iters, res.DiscardedPrefetches)
		if res.Invariant != nil {
			fmt.Printf("invariant  %v\n", res.Invariant)
		}
	}
	if *resume != "" {
		fmt.Printf("resume     %s policy state restored from %s\n", res.Policy, *resume)
	}
	if res.Health != nil {
		fmt.Printf("health     final %s, peak %s, %d ladder transition(s)\n",
			res.Health.Level, res.Health.MaxLevel, res.Health.Transitions)
	}
	fmt.Printf("footprint  %.2f GiB (scaled), %d kernels/iteration\n",
		float64(prog.FootprintBytes())/float64(deepum.GiB), prog.Kernels())
	fmt.Printf("iteration  %v (mean over %d measured iterations)\n", res.IterationTime, res.Iterations)
	fmt.Printf("100 iters  %.1f s (extrapolated)\n", (100 * res.IterationTime).Seconds())
	if res.PageFaultsPerIteration > 0 || res.System == deepum.SystemDeepUM || res.System == deepum.SystemUM {
		fmt.Printf("faults     %d pages/iteration\n", res.PageFaultsPerIteration)
	}
	fmt.Printf("traffic    %.2f GiB H2D, %.2f GiB D2H\n",
		float64(res.TrafficH2D)/float64(deepum.GiB), float64(res.TrafficD2H)/float64(deepum.GiB))
	fmt.Printf("energy     %.1f J (measured window)\n", res.EnergyJoules)
	if res.Policy != "" {
		fmt.Printf("policy     %s (%.1f MiB state, %d prefetches issued, %d useful)\n",
			res.Policy, float64(res.CorrelationTableBytes)/float64(deepum.MiB), res.PrefetchIssued, res.PrefetchUseful)
	}
	if *ckpt != "" {
		fmt.Printf("checkpoint %s policy state saved to %s\n", res.Policy, *ckpt)
	}
	if *trace != "" {
		fmt.Printf("trace      %d events written to %s (%d overwritten)\n",
			cfg.Observe.EventCount(), *trace, cfg.Observe.Dropped())
	}
	if *chaosSc != "" && *chaosSc != "none" {
		cs := res.ChaosStats
		fmt.Printf("chaos      %s: %d transfer failures, %d demand retries, %d prefetch retries (%d gave up)\n",
			*chaosSc, cs.TransferFailures, cs.DemandRetries, cs.PrefetchRetries, cs.PrefetchGiveUps)
		fmt.Printf("           %d batch caps, %d dropped + %d duped notifies, %d migrator stalls, %d pressure windows\n",
			cs.BatchCapHits, cs.DroppedNotifies, cs.DupNotifies, cs.MigratorStalls, cs.PressureWindows)
	}
}
