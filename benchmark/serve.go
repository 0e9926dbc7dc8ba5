package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepum"
)

// serveClients is the closed-loop client count: each submits one run and
// waits for it before submitting the next.
const serveClients = 2

// serveWorkload drives a checkpointing supervisor: 2 workers, an fsync'd
// journal and a checkpoint store, every run bert-base b32 at scale 32 with
// 2 warm-up + 4 iterations and a checkpoint after every iteration. A
// window runs sessions of serveSessionRuns runs, each on a fresh
// supervisor, journal and store.
type serveWorkload struct {
	dir  string
	spec deepum.RunSpec
	op   ops

	ref   deepum.RunOutcome // the spec executed alone through the runner
	umRef deepum.RunOutcome // the same spec under naive UM

	st  *deepum.CheckpointStore
	sup *deepum.Supervisor

	// Untraced window samples.
	latMs   []float64
	runs    int
	elapsed time.Duration

	probe hostCost

	// Traced window.
	tracedLatMs                []float64
	spans                      *spanRecorder
	storeGrowth, journalGrowth int64
	inlined                    int
}

func newServeWorkload(seed int64, dir string) *serveWorkload {
	return &serveWorkload{
		dir: dir,
		spec: deepum.RunSpec{
			Model: "bert-base", Batch: 32, System: string(deepum.SystemDeepUM),
			Scale: 32, Warmup: 2, Iterations: 4, Seed: seed, CheckpointEvery: 1,
		},
	}
}

func (s *serveWorkload) simItersPerRun() int { return s.spec.Warmup + s.spec.Iterations }

// setup executes the spec alone through the runner (the outcome every
// served run must equal) and its naive-UM counterpart, then opens the
// store and starts the supervisor.
func (s *serveWorkload) setup() error {
	ctx := context.Background()
	ref, err := deepum.TrainRunner().Run(ctx, s.spec, nil, func([]byte) {})
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	if ref.Status != deepum.StatusCompleted.String() || ref.Iterations != s.spec.Iterations || ref.FaultsPerIteration <= 0 {
		return fmt.Errorf("reference run did not complete cleanly: %+v", ref)
	}
	s.ref = ref
	uspec := s.spec
	uspec.System = string(deepum.SystemUM)
	s.umRef, err = deepum.TrainRunner().Run(ctx, uspec, nil, func([]byte) {})
	if err != nil {
		return fmt.Errorf("reference UM run: %w", err)
	}
	if s.umRef.Status != deepum.StatusCompleted.String() || s.umRef.FaultsPerIteration <= 0 {
		return fmt.Errorf("reference UM run did not complete cleanly: %+v", s.umRef)
	}
	return s.start(nil)
}

// start opens a fresh store and journal and a supervisor over them; rec,
// when set, wraps the runner to record runner and progress spans.
func (s *serveWorkload) start(rec *spanRecorder) error {
	s.stop()
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return fmt.Errorf("creating %s: %w", s.dir, err)
	}
	var err error
	s.st, _, err = deepum.OpenCheckpointStore(filepath.Join(s.dir, "ck.store"), deepum.CheckpointStoreOptions{})
	if err != nil {
		return fmt.Errorf("opening checkpoint store: %w", err)
	}
	runner := deepum.TrainRunner()
	if rec != nil {
		runner = rec.wrap(runner)
	}
	s.sup, err = deepum.NewSupervisor(deepum.SupervisorConfig{
		Runner:      runner,
		Workers:     2,
		JournalPath: filepath.Join(s.dir, "runs.journal"),
		Checkpoints: s.st,
	})
	if err != nil {
		return fmt.Errorf("starting supervisor: %w", err)
	}
	return nil
}

// stop drains the supervisor and closes the store and removes their files.
func (s *serveWorkload) stop() {
	if s.sup != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := s.sup.Drain(ctx); err != nil {
			s.sup.Kill()
		}
		cancel()
		s.sup = nil
	}
	if s.st != nil {
		_ = s.st.Close()
		s.st = nil
	}
	_ = os.RemoveAll(s.dir)
}

func (s *serveWorkload) ops() *ops { return &s.op }
func (s *serveWorkload) close()    { s.stop() }

// serveSessionRuns is how many runs one supervisor serves before the
// window replaces it (drain, close, fresh journal and store). The
// supervisor keeps every finished run's final checkpoint in memory, so
// without replacement its footprint grows with the runs served; bounding
// the session keeps peak RSS independent of throughput and window length.
const serveSessionRuns = 40

// clientSample is one submission as a client saw it. The outcome is
// checked when it arrives; only the verdict is kept, not the RunInfo with
// its checkpoint bytes.
type clientSample struct {
	id                       uint64
	submitted, admitted, got time.Time
	started                  time.Time // supervisor's start stamp
	err                      error
}

// window runs the closed-loop clients for d, replacing the supervisor
// every serveSessionRuns runs.
func (s *serveWorkload) window(d time.Duration, traced, profile bool) error {
	var rec *spanRecorder
	if traced {
		rec = newSpanRecorder()
		s.spans = rec
		s.stop() // sessions of the traced window run the wrapped runner
	}
	var probe *hostProbe
	if profile {
		var err error
		if probe, err = startProbe(); err != nil {
			return err
		}
	}
	start := time.Now()
	deadline := start.Add(d)
	var samples []clientSample
	var storeBytes, journalBytes int64
	inlined := 0
	for time.Now().Before(deadline) {
		if s.sup == nil {
			if err := s.start(rec); err != nil {
				return err
			}
		}
		samples = append(samples, s.session(deadline)...)
		storeBytes += fileSize(filepath.Join(s.dir, "ck.store"))
		journalBytes += fileSize(filepath.Join(s.dir, "runs.journal"))
		inlined += s.sup.Stats().CheckpointsInlined
		s.stop()
	}
	elapsed := time.Since(start)

	var lat []float64
	completed := 0
	for _, cs := range samples {
		if cs.err != nil {
			s.op.fail("run %d: %v", cs.id, cs.err)
			continue
		}
		s.op.ok()
		completed++
		lat = append(lat, float64(cs.got.Sub(cs.submitted))/1e6)
	}
	if traced {
		s.tracedLatMs = lat
		rec.pair(samples)
		if err := rec.write(spansFile); err != nil {
			return err
		}
		s.storeGrowth, s.journalGrowth, s.inlined = storeBytes, journalBytes, inlined
	} else {
		s.latMs, s.runs, s.elapsed = lat, completed, elapsed
	}
	if probe != nil {
		hc, err := probe.stop()
		if err != nil {
			return err
		}
		hc.simIters = int64(completed * s.simItersPerRun())
		hc.untracedMed = median(lat)
		s.probe = hc
	}
	return nil
}

// session drives the current supervisor with the closed-loop clients
// until it has taken serveSessionRuns submissions or the deadline passes.
func (s *serveWorkload) session(deadline time.Time) []clientSample {
	var mu sync.Mutex
	var samples []clientSample
	var wg sync.WaitGroup
	var tickets atomic.Int64
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []clientSample
			for time.Now().Before(deadline) && tickets.Add(1) <= serveSessionRuns {
				cs := clientSample{submitted: time.Now()}
				cs.id, cs.err = s.sup.Submit(s.spec)
				cs.admitted = time.Now()
				if cs.err == nil {
					var info deepum.RunInfo
					info, cs.err = s.sup.Wait(cs.id)
					if cs.err == nil {
						cs.err = s.check(info)
					}
					if info.Started != nil {
						cs.started = *info.Started
					}
				}
				cs.got = time.Now()
				mine = append(mine, cs)
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples
}

// check verifies a finished run: completed, with the outcome of the spec
// executed alone.
func (s *serveWorkload) check(info deepum.RunInfo) error {
	if info.State != deepum.RunCompleted || info.Outcome == nil {
		return fmt.Errorf("ended %s: %s", info.State, info.Reason)
	}
	got, want := *info.Outcome, s.ref
	if got.Status != want.Status || got.Iterations != want.Iterations ||
		got.IterationTime != want.IterationTime || got.FaultsPerIteration != want.FaultsPerIteration ||
		got.AccessChecksum != want.AccessChecksum || got.Error != "" {
		return fmt.Errorf("outcome %+v differs from the reference %+v", got, want)
	}
	return nil
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

func (s *serveWorkload) endToEnd(r *report) {
	refIterMs := float64(s.ref.IterationTime) / 1e6
	umIterMs := float64(s.umRef.IterationTime) / 1e6
	residual := 100 * float64(s.ref.FaultsPerIteration) / float64(s.umRef.FaultsPerIteration)
	speedup := umIterMs / refIterMs
	runsPerS := float64(s.runs) / s.elapsed.Seconds()
	r.set("runs_per_s", runsPerS, "1/s")
	r.set("sim_iters_per_host_s", runsPerS*float64(s.simItersPerRun()), "1/s")
	r.set("run_latency_ms.p50", median(s.latMs), "ms")
	r.set("sim_iter_ms", refIterMs, "sim_ms")
	r.set("faults_per_iter", float64(s.ref.FaultsPerIteration), "count")
	r.set("residual_fault_pct", residual, "%")
	r.set("speedup_vs_um", speedup, "x")

	r.printf("closed loop, %d clients (submit, then Wait), supervisor with 2 workers, fsync'd journal, checkpoint store,", serveClients)
	r.printf("a fresh supervisor, journal and store every %d runs;", serveSessionRuns)
	r.printf("each run: bert-base b32 deepum, scale %d, %d warm-up + %d iterations, checkpoint every iteration",
		s.spec.Scale, s.spec.Warmup, s.spec.Iterations)
	r.printf("  %-34s %.4g over %.2f s (%d runs)", "runs_per_s", runsPerS, s.elapsed.Seconds(), s.runs)
	r.timing("run_latency_ms (submit -> Wait)", s.latMs, "ms")
	r.printf("  %-34s p90 %.4g ms over n=%d (%d samples above p90)", "run_latency_ms.p90",
		percentile(s.latMs, 0.9), len(s.latMs), len(s.latMs)/10)
	r.printf("simulated outputs (identical in every run; AccessChecksum %016x):", s.ref.AccessChecksum)
	r.printf("  sim_iter_ms %.3f, faults_per_iter %d; naive-UM reference %.3f sim_ms, %d faults/iter",
		refIterMs, s.ref.FaultsPerIteration, umIterMs, s.umRef.FaultsPerIteration)
	r.printf("  residual_fault_pct %.2f%%   paper: %s", residual, paperResidualBand)
	r.printf("  speedup_vs_um      %.2fx    paper: %s", speedup, paperSpeedupBand)
}

func (s *serveWorkload) perLayer(r *report) {
	sp := s.spans
	runs := float64(len(s.tracedLatMs))
	perRun := func(x float64) float64 {
		if runs == 0 {
			return 0
		}
		return x / runs
	}
	r.printf("per-layer: untraced window %d runs (CPU profile %d samples), traced window %d runs",
		s.probe.simIters/int64(s.simItersPerRun()), s.probe.cpu.samples, len(s.tracedLatMs))
	r.set("run_latency_ms.p90", percentile(s.latMs, 0.9), "ms")
	r.set("admission.submit_us.p50", median(sp.submitUs), "us")
	r.set("supervisor.queue_wait_ms.p50", median(sp.queueWaitMs), "ms")
	r.set("engine.exec_ms_per_run", perRun(float64(sp.execTotal)/1e6), "ms")
	r.set("supervisor.checkpoint_ms_per_run", perRun(float64(sp.progressTotal)/1e6), "ms")
	r.set("supervisor.finalize_ms.p50", median(sp.finalizeMs), "ms")
	r.set("supervisor.checkpoints_per_run", perRun(float64(sp.checkpoints)), "count")
	kb := 0.0
	if sp.checkpoints > 0 {
		kb = float64(sp.checkpointBytes) / float64(sp.checkpoints) / 1024
	}
	r.set("supervisor.checkpoint_kb", kb, "KiB")
	r.set("store.bytes_per_run", perRun(float64(s.storeGrowth)), "B")
	r.set("journal.bytes_per_run", perRun(float64(s.journalGrowth)), "B")
	r.set("supervisor.checkpoints_inlined", float64(s.inlined), "count")
	r.printf("  per-run spans written to %s (%d runs)", spansFile, len(sp.runs))
	r.timing("admission.submit_us", sp.submitUs, "us")
	r.timing("supervisor.queue_wait_ms", sp.queueWaitMs, "ms")
	r.timing("supervisor.finalize_ms", sp.finalizeMs, "ms")
	r.printf("  runner spans: exec %.3f ms/run, inside progress (store Put + journal append) %.3f ms/run, %.1f checkpoints/run of %.1f KiB",
		perRun(float64(sp.execTotal)/1e6), perRun(float64(sp.progressTotal)/1e6), perRun(float64(sp.checkpoints)), kb)
	setHostCost(r, s.probe)
	// Latency is the serving path's per-sample cost: overhead is the
	// traced window's median latency over the untraced one's.
	ov := 0.0
	if u := s.probe.untracedMed; u > 0 {
		ov = 100 * (median(s.tracedLatMs)/u - 1)
	}
	r.set("trace_overhead_pct", ov, "%")
	r.printf("  tracing overhead: run latency p50 %.4g ms untraced vs %.4g ms traced (%.1f%%)",
		s.probe.untracedMed, median(s.tracedLatMs), ov)
}

// spanRecorder holds the serving path's spans in memory: runner and
// progress spans from the wrapped runner, submit/Wait spans from the
// clients, paired by run ID when the window ends.
type spanRecorder struct {
	mu     sync.Mutex
	runner []runnerSpan

	submitUs, queueWaitMs, finalizeMs []float64
	execTotal, progressTotal          time.Duration
	checkpoints, checkpointBytes      int64
	runs                              []runSpans
}

// runSpans is one served run's spans as written to the spans file.
type runSpans struct {
	ID          uint64  `json:"id"`
	SubmitUs    float64 `json:"submit_us"`
	QueueWaitMs float64 `json:"queue_wait_ms"`
	ExecMs      float64 `json:"exec_ms"`
	ProgressMs  float64 `json:"progress_ms"`
	FinalizeMs  float64 `json:"finalize_ms"`
	LatencyMs   float64 `json:"latency_ms"`
}

// spansFile is where a traced serve-ckpt window writes its paired spans,
// one JSON object per run.
var spansFile = filepath.Join(workRoot, "serve-ckpt-spans.jsonl")

// write saves the paired spans as JSON lines.
func (sr *spanRecorder) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range sr.runs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("encoding spans: %w", err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// runnerSpan is one runner invocation.
type runnerSpan struct {
	start, end  time.Time
	inProgress  time.Duration
	checkpoints int64
	ckBytes     int64
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{} }

// wrap returns a runner that records a span around inner's Run and the
// time spent inside the supervisor's progress callback (checkpoint store
// Put and journal append).
func (sr *spanRecorder) wrap(inner deepum.Runner) deepum.Runner {
	return deepum.RunnerFunc(func(ctx context.Context, spec deepum.RunSpec, resume []byte, progress func([]byte)) (deepum.RunOutcome, error) {
		sp := runnerSpan{start: time.Now()}
		out, err := inner.Run(ctx, spec, resume, func(ck []byte) {
			t0 := time.Now()
			progress(ck)
			sp.inProgress += time.Since(t0)
			if ck != nil {
				sp.checkpoints++
				sp.ckBytes += int64(len(ck))
			}
		})
		sp.end = time.Now()
		sr.mu.Lock()
		sr.runner = append(sr.runner, sp)
		sr.mu.Unlock()
		return out, err
	})
}

// pair matches runner spans to client samples and derives the per-run
// timings. The runner does not see run IDs; runs start in queue (ID)
// order, so the i-th runner start is matched with the i-th run by its
// supervisor start time.
func (sr *spanRecorder) pair(samples []clientSample) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	var ok []clientSample
	for _, cs := range samples {
		sr.submitUs = append(sr.submitUs, float64(cs.admitted.Sub(cs.submitted))/1e3)
		if cs.err == nil && !cs.started.IsZero() {
			ok = append(ok, cs)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].started.Before(ok[j].started) })
	sort.Slice(sr.runner, func(i, j int) bool { return sr.runner[i].start.Before(sr.runner[j].start) })
	for i, cs := range ok {
		if i >= len(sr.runner) {
			break
		}
		sp := sr.runner[i]
		rs := runSpans{
			ID:          cs.id,
			SubmitUs:    float64(cs.admitted.Sub(cs.submitted)) / 1e3,
			QueueWaitMs: float64(sp.start.Sub(cs.admitted)) / 1e6,
			ExecMs:      float64(sp.end.Sub(sp.start)-sp.inProgress) / 1e6,
			ProgressMs:  float64(sp.inProgress) / 1e6,
			FinalizeMs:  float64(cs.got.Sub(sp.end)) / 1e6,
			LatencyMs:   float64(cs.got.Sub(cs.submitted)) / 1e6,
		}
		sr.runs = append(sr.runs, rs)
		sr.queueWaitMs = append(sr.queueWaitMs, rs.QueueWaitMs)
		sr.finalizeMs = append(sr.finalizeMs, rs.FinalizeMs)
		sr.execTotal += sp.end.Sub(sp.start) - sp.inProgress
		sr.progressTotal += sp.inProgress
		sr.checkpoints += sp.checkpoints
		sr.checkpointBytes += sp.ckBytes
	}
}
