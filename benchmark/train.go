package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"deepum"
)

// Paper bands printed beside the reproduced figures (EXPERIMENTS.md).
const (
	paperResidualBand = "<0.1-1.8% of UM's faults (Table 5)"
	paperSpeedupBand  = "3.06x mean over UM (Fig. 9a)"
)

// fingerprint is every simulated output of a Train call that must repeat
// exactly across calls with the same inputs.
type fingerprint struct {
	status         deepum.RunStatus
	iterations     int
	iterTime       deepum.Duration
	totalTime      deepum.Duration
	faults         int64
	h2d, d2h       int64
	energy         float64
	issued, useful int64
	tableBytes     int64
	checksum       uint64
}

func fingerprintOf(r *deepum.Result) fingerprint {
	return fingerprint{
		status: r.Status, iterations: r.Iterations, iterTime: r.IterationTime,
		totalTime: r.TotalTime, faults: r.PageFaultsPerIteration,
		h2d: r.TrafficH2D, d2h: r.TrafficD2H, energy: r.EnergyJoules,
		issued: r.PrefetchIssued, useful: r.PrefetchUseful,
		tableBytes: r.CorrelationTableBytes, checksum: r.AccessChecksum,
	}
}

// hostProbe collects a CPU profile and allocation counts over a window.
type hostProbe struct {
	buf bytes.Buffer
	m0  runtime.MemStats
}

func startProbe() (*hostProbe, error) {
	p := &hostProbe{}
	runtime.ReadMemStats(&p.m0)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting cpu profile: %w", err)
	}
	return p, nil
}

// hostCost is what a probe measured.
type hostCost struct {
	cpu        cpuShares
	allocBytes uint64
	mallocs    uint64
	simIters   int64 // simulated iterations the window executed
	// untracedMed is the window's median per-sample figure: the rate of a
	// Train call, the latency of a served run.
	untracedMed float64
}

func (p *hostProbe) stop() (hostCost, error) {
	pprof.StopCPUProfile()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	cpu, err := parseCPUProfile(p.buf.Bytes())
	if err != nil {
		return hostCost{}, err
	}
	return hostCost{cpu: cpu, allocBytes: m1.TotalAlloc - p.m0.TotalAlloc, mallocs: m1.Mallocs - p.m0.Mallocs}, nil
}

// trainWorkload drives deepum.Train back to back from one client:
// bert-base b32 at scale 8, 3 warm-up + 4 measured iterations, under DeepUM
// (correlation policy) or naive UM.
type trainWorkload struct {
	deepum bool
	w      deepum.Workload
	cfg    deepum.Config
	op     ops

	ref   fingerprint // the set-up call's outputs, repeated by every sample
	umRef fingerprint // reference naive-UM run of the same inputs

	// Untraced window samples.
	latMs, rate []float64
	elapsed     time.Duration

	probe hostCost

	// Traced window.
	tracedRate          []float64
	policyCalls         int64
	policyHost          time.Duration
	wrapperPerCall      time.Duration
	spanBias            time.Duration
	tracedCalls         int64
	analysis            *deepum.TraceAnalysis
	analysisFingerprint string
}

func newTrainWorkload(seed int64, isDeepUM bool) *trainWorkload {
	cfg := deepum.DefaultConfig()
	cfg.Seed = seed
	cfg.Scale = 8
	cfg.Warmup, cfg.Iterations = 3, 4
	cfg.System = deepum.SystemUM
	if isDeepUM {
		cfg.System = deepum.SystemDeepUM
	}
	return &trainWorkload{
		deepum: isDeepUM, cfg: cfg,
		w: deepum.Workload{Model: "bert-base", Batch: 32},
	}
}

func (t *trainWorkload) simItersPerCall() int { return t.cfg.Warmup + t.cfg.Iterations }

// setup runs the cold first Train (its outputs become the reference every
// sample must repeat) and the naive-UM reference of the same inputs.
func (t *trainWorkload) setup() error {
	r, err := deepum.Train(t.w, t.cfg)
	if err != nil {
		return fmt.Errorf("reference Train: %w", err)
	}
	if !r.Succeeded() || r.Iterations != t.cfg.Iterations || r.PageFaultsPerIteration <= 0 {
		return fmt.Errorf("reference Train did not complete cleanly: status %v, %d iterations, %d faults/iter",
			r.Status, r.Iterations, r.PageFaultsPerIteration)
	}
	t.ref = fingerprintOf(r)
	t.umRef = t.ref
	if t.deepum {
		ucfg := t.cfg
		ucfg.System = deepum.SystemUM
		u, err := deepum.Train(t.w, ucfg)
		if err != nil {
			return fmt.Errorf("reference UM Train: %w", err)
		}
		if !u.Succeeded() {
			return fmt.Errorf("reference UM Train ended %v", u.Status)
		}
		t.umRef = fingerprintOf(u)
		// Prefetching changes when blocks move, never which blocks the
		// GPU touches: both systems must see one access stream.
		if t.umRef.checksum != t.ref.checksum {
			return fmt.Errorf("AccessChecksum differs between deepum (%x) and um (%x) on the same inputs",
				t.ref.checksum, t.umRef.checksum)
		}
	}
	return nil
}

func (t *trainWorkload) ops() *ops { return &t.op }
func (t *trainWorkload) close()    {}

// call runs one Train and checks it against the reference.
func (t *trainWorkload) call(cfg deepum.Config) (time.Duration, bool) {
	t0 := time.Now()
	r, err := deepum.Train(t.w, cfg)
	d := time.Since(t0)
	switch {
	case err != nil:
		t.op.fail("Train: %v", err)
		return d, false
	case fingerprintOf(r) != t.ref:
		t.op.fail("Train outputs differ from the reference: got %+v want %+v", fingerprintOf(r), t.ref)
		return d, false
	}
	t.op.ok()
	return d, true
}

func (t *trainWorkload) window(d time.Duration, traced, profile bool) error {
	if traced {
		return t.tracedWindow(d)
	}
	var probe *hostProbe
	if profile {
		var err error
		if probe, err = startProbe(); err != nil {
			return err
		}
	}
	iters := float64(t.simItersPerCall())
	start := time.Now()
	deadline := start.Add(d)
	var calls int64
	for time.Now().Before(deadline) {
		dt, ok := t.call(t.cfg)
		calls++
		if !ok {
			continue
		}
		t.latMs = append(t.latMs, float64(dt)/1e6)
		t.rate = append(t.rate, iters/dt.Seconds())
	}
	t.elapsed = time.Since(start)
	if probe != nil {
		hc, err := probe.stop()
		if err != nil {
			return err
		}
		hc.simIters = calls * int64(iters)
		hc.untracedMed = median(t.rate)
		t.probe = hc
	}
	return nil
}

// tracedWindow attaches an Observer to every call and, under DeepUM, runs
// the chaser behind the timing wrapper. The simulated outputs must still
// equal the untraced reference.
func (t *trainWorkload) tracedWindow(d time.Duration) error {
	cfg := t.cfg
	if t.deepum {
		t.wrapperPerCall, t.spanBias = calibrate()
		cfg.Policy = timedPolicyName
	}
	iters := float64(t.simItersPerCall())
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		ob := deepum.NewObserver(deepum.TraceOptions{Capacity: 1 << 22})
		cfg.Observe = ob
		timer := newPolicyTimer()
		activeTimer = timer
		dt, ok := t.call(cfg)
		if !ok {
			continue
		}
		t.tracedRate = append(t.tracedRate, iters/dt.Seconds())
		t.tracedCalls++
		t.policyCalls += timer.calls
		t.policyHost += timer.hostTime(t.spanBias)
		if ob.Dropped() != 0 {
			t.op.fail("observer ring dropped %d events", ob.Dropped())
			continue
		}
		a := ob.Analyze()
		fp := fmt.Sprintf("%d/%d/%d/%d/%d/%d/%d/%d/%d", a.Iterations, a.FaultBatches, a.FaultPages,
			a.EvictCritical, a.EvictBackground, a.EvictInvalidated, a.PrefetchWasted, a.PrefetchLateHits, a.StallNs)
		if t.analysis == nil {
			t.analysis, t.analysisFingerprint = a, fp
			if a.Iterations != t.simItersPerCall() {
				t.op.fail("trace holds %d iterations, want %d", a.Iterations, t.simItersPerCall())
			}
		} else if fp != t.analysisFingerprint {
			t.op.fail("trace analysis differs between identical calls: %s vs %s", fp, t.analysisFingerprint)
		}
	}
	activeTimer = newPolicyTimer()
	return nil
}

func (t *trainWorkload) endToEnd(r *report) {
	refIterMs := float64(t.ref.iterTime) / 1e6
	umIterMs := float64(t.umRef.iterTime) / 1e6
	residual := 100 * float64(t.ref.faults) / float64(t.umRef.faults)
	speedup := umIterMs / refIterMs
	r.set("sim_iters_per_host_s", median(t.rate), "1/s")
	r.set("runs_per_s", float64(len(t.rate))/t.elapsed.Seconds(), "1/s")
	r.set("run_latency_ms.p50", median(t.latMs), "ms")
	r.set("sim_iter_ms", refIterMs, "sim_ms")
	r.set("faults_per_iter", float64(t.ref.faults), "count")
	r.set("residual_fault_pct", residual, "%")
	r.set("speedup_vs_um", speedup, "x")

	r.printf("closed loop, 1 client, Train(bert-base b32, %s, scale %d, %d warm-up + %d measured iterations) per call",
		t.cfg.System, t.cfg.Scale, t.cfg.Warmup, t.cfg.Iterations)
	r.timing("sim_iters_per_host_s (per call)", t.rate, "1/s")
	r.timing("run_latency_ms (per Train call)", t.latMs, "ms")
	r.printf("  %-34s p90 %.4g ms over n=%d (%d samples above p90)", "run_latency_ms.p90",
		percentile(t.latMs, 0.9), len(t.latMs), len(t.latMs)/10)
	r.printf("simulated outputs (identical in every call; AccessChecksum %016x):", t.ref.checksum)
	r.printf("  sim_iter_ms %.3f, faults_per_iter %d; naive-UM reference %.3f sim_ms, %d faults/iter",
		refIterMs, t.ref.faults, umIterMs, t.umRef.faults)
	r.printf("  residual_fault_pct %.2f%%   paper: %s", residual, paperResidualBand)
	r.printf("  speedup_vs_um      %.2fx    paper: %s", speedup, paperSpeedupBand)
}

func (t *trainWorkload) perLayer(r *report) {
	iters := float64(t.simItersPerCall())
	perIter := func(total float64) float64 {
		if t.tracedCalls == 0 {
			return 0
		}
		return total / float64(t.tracedCalls) / iters
	}
	r.printf("per-layer: untraced window %d calls (CPU profile %d samples), traced window %d calls",
		t.probe.simIters/int64(iters), t.probe.cpu.samples, t.tracedCalls)

	r.set("run_latency_ms.p90", percentile(t.latMs, 0.9), "ms")
	r.set("policy.calls_per_iter", perIter(float64(t.policyCalls)), "count")
	r.set("policy.host_ms_per_iter", perIter(float64(t.policyHost)/1e6), "ms")
	r.set("policy.wrapper_ms_per_iter", perIter(float64(t.policyCalls)*float64(t.wrapperPerCall)/1e6), "ms")
	if t.deepum {
		r.printf("  policy wrapper: 1 call in %d timed; own cost %v per call, %v per timed span (calibrated, excluded from policy.host_ms)",
			sampleEvery, t.wrapperPerCall, t.spanBias)
	}

	r.set("core.prefetch_issued_per_iter", float64(t.ref.issued)/iters, "count")
	useful := 0.0
	if t.ref.issued > 0 {
		useful = 100 * float64(t.ref.useful) / float64(t.ref.issued)
	}
	r.set("core.prefetch_useful_pct", useful, "%")
	if t.deepum {
		r.printf("  prefetch: %d useful of %d issued per Train", t.ref.useful, t.ref.issued)
	}
	if a := t.analysis; a != nil {
		r.set("obs.prefetch_late_hits_per_iter", float64(a.PrefetchLateHits)/iters, "count")
		r.set("obs.prefetch_wasted_per_iter", float64(a.PrefetchWasted)/iters, "count")
		r.set("um.fault_batches_per_iter", float64(a.FaultBatches)/iters, "count")
		r.set("um.fault_pages_per_iter", float64(a.FaultPages)/iters, "count")
		r.set("um.fault_sim_ms_per_iter", float64(a.FaultBatchNs)/iters/1e6, "sim_ms")
		r.set("um.evict_critical_per_iter", float64(a.EvictCritical)/iters, "count")
		r.set("um.evict_background_per_iter", float64(a.EvictBackground)/iters, "count")
		r.set("um.evict_invalidated_per_iter", float64(a.EvictInvalidated)/iters, "count")
		r.set("sim.link_h2d_busy_pct", a.LinkUtilH2DPct, "%")
		r.set("sim.link_d2h_busy_pct", a.LinkUtilD2HPct, "%")
		r.set("engine.stall_sim_ms_per_iter", float64(a.StallNs)/iters/1e6, "sim_ms")
		r.printf("  trace: %d events per Train", a.Events)
	}
	setHostCost(r, t.probe)
	setTraceOverhead(r, t.probe.untracedMed, median(t.tracedRate), "sim_iters_per_host_s")
}

// setHostCost reports the untraced window's CPU shares and allocations.
func setHostCost(r *report, hc hostCost) {
	r.set("host_cpu_samples", float64(hc.cpu.samples), "count")
	line := ""
	for _, m := range cpuModules {
		r.set("host_cpu_pct."+m, hc.cpu.pct(m), "%")
		if p := hc.cpu.pct(m); p >= 0.5 {
			line += fmt.Sprintf(" %s %.1f%%", m, p)
		}
	}
	r.printf("  host CPU by module (untraced window, %d samples):%s", hc.cpu.samples, line)
	if hc.simIters > 0 {
		r.set("alloc_bytes_per_iter", float64(hc.allocBytes)/float64(hc.simIters), "B")
		r.set("mallocs_per_iter", float64(hc.mallocs)/float64(hc.simIters), "count")
	}
}

// setTraceOverhead reports the traced window's slowdown against the
// untraced window of the same run, from the median per-sample rates.
func setTraceOverhead(r *report, untraced, traced float64, what string) {
	ov := 0.0
	if traced > 0 {
		ov = 100 * (untraced/traced - 1)
	}
	r.set("trace_overhead_pct", ov, "%")
	r.printf("  tracing overhead: %s %.4g untraced vs %.4g traced (%.1f%%)", what, untraced, traced, ov)
}
