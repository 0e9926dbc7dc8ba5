// Command benchmark measures the DeepUM reproduction on three fixed
// workloads and prints one JSON result line.
//
// Usage (from the repository root, through run.sh which builds it):
//
//	bash benchmark/run.sh --workload bert-deepum --seed 1 --seconds 40 --trace 0
//
// With --trace 0 a run sets the workload up five times (set-up time is the
// median), then drives it closed-loop for --seconds with tracing off and
// reports the end-to-end metrics. With --trace 1 it drives one untraced
// window (CPU-profiled, allocation-counted) and one traced window (timing
// wrappers, observer, spans) of --seconds/2 each and reports the per-layer
// metrics. Every sample is checked against the workload's reference
// outputs; a failed check is a failed operation and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workRoot holds each run's journals and stores, in a directory the run
// removes when it ends.
const workRoot = ".bench_build"

// setupRounds is how many times a run sets its workload up; setup_s is the
// median, the first round also paying the process's cold start.
const setupRounds = 5

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ops counts attempted and failed operations and keeps the first few
// failure messages for the report.
type ops struct {
	attempted, failed int64
	errs              []string
}

func (o *ops) ok() { o.attempted++ }

func (o *ops) fail(format string, args ...any) {
	o.attempted++
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// report accumulates metrics plus the human-readable lines printed above
// the JSON result.
type report struct {
	metrics map[string]metric
	lines   []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// endToEndMetrics and perLayerMetrics are the names BENCHMARK.json
// declares, with their units.
var (
	endToEndMetrics = []metricDecl{
		{"sim_iters_per_host_s", "1/s"}, {"runs_per_s", "1/s"},
		{"run_latency_ms.p50", "ms"},
		{"sim_iter_ms", "sim_ms"}, {"faults_per_iter", "count"},
		{"residual_fault_pct", "%"}, {"speedup_vs_um", "x"},
		{"setup_s", "s"}, {"peak_rss_mb", "MB"},
	}
	perLayerMetrics = append([]metricDecl{
		{"run_latency_ms.p90", "ms"},
		{"policy.calls_per_iter", "count"}, {"policy.host_ms_per_iter", "ms"},
		{"policy.wrapper_ms_per_iter", "ms"},
		{"core.prefetch_issued_per_iter", "count"}, {"core.prefetch_useful_pct", "%"},
		{"obs.prefetch_late_hits_per_iter", "count"}, {"obs.prefetch_wasted_per_iter", "count"},
		{"um.fault_batches_per_iter", "count"}, {"um.fault_pages_per_iter", "count"},
		{"um.fault_sim_ms_per_iter", "sim_ms"}, {"um.evict_critical_per_iter", "count"},
		{"um.evict_background_per_iter", "count"}, {"um.evict_invalidated_per_iter", "count"},
		{"sim.link_h2d_busy_pct", "%"}, {"sim.link_d2h_busy_pct", "%"},
		{"engine.stall_sim_ms_per_iter", "sim_ms"},
		{"host_cpu_samples", "count"},
		{"alloc_bytes_per_iter", "B"}, {"mallocs_per_iter", "count"},
		{"admission.submit_us.p50", "us"}, {"supervisor.queue_wait_ms.p50", "ms"},
		{"engine.exec_ms_per_run", "ms"}, {"supervisor.checkpoint_ms_per_run", "ms"},
		{"supervisor.finalize_ms.p50", "ms"}, {"supervisor.checkpoints_per_run", "count"},
		{"supervisor.checkpoint_kb", "KiB"}, {"store.bytes_per_run", "B"},
		{"journal.bytes_per_run", "B"}, {"supervisor.checkpoints_inlined", "count"},
		{"trace_overhead_pct", "%"},
	}, cpuMetricDecls()...)
)

type metricDecl struct{ name, unit string }

func cpuMetricDecls() []metricDecl {
	var out []metricDecl
	for _, m := range cpuModules {
		out = append(out, metricDecl{"host_cpu_pct." + m, "%"})
	}
	return out
}

// complete reports every declared metric of the mode: a layer the
// workload does not exercise reads 0. A metric set under an undeclared
// name or unit is a bug in the benchmark.
func (r *report) complete(traced bool) error {
	decls := endToEndMetrics
	if traced {
		decls = perLayerMetrics
	}
	known := map[string]string{}
	for _, d := range decls {
		known[d.name] = d.unit
		if _, ok := r.metrics[d.name]; !ok {
			r.set(d.name, 0, d.unit)
		}
	}
	for name, m := range r.metrics {
		if unit, ok := known[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %s (%s) is not declared for this mode", name, m.Unit)
		}
	}
	return nil
}

// timing reports a sample set as median and quartiles with its count.
func (r *report) timing(label string, xs []float64, unit string) {
	if len(xs) == 0 {
		r.printf("  %-34s no samples", label)
		return
	}
	q1, med, q3 := quartiles(xs)
	r.printf("  %-34s median %.4g %s  IQR [%.4g, %.4g]  n=%d", label, med, unit, q1, q3, len(xs))
}

// workload is one benchmark scenario. setup builds it and runs its
// references; window drives it closed-loop for d and records samples.
type workload interface {
	setup() error
	// window runs one measured window; traced attaches the per-layer
	// instrumentation and profile collects the CPU profile and allocation
	// counts of an untraced window.
	window(d time.Duration, traced, profile bool) error
	endToEnd(r *report)
	perLayer(r *report)
	ops() *ops
	close()
}

func newWorkload(name string, seed int64, workDir string) (workload, error) {
	switch name {
	case "bert-deepum":
		return newTrainWorkload(seed, true), nil
	case "bert-um":
		return newTrainWorkload(seed, false), nil
	case "serve-ckpt":
		return newServeWorkload(seed, workDir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want bert-deepum, bert-um or serve-ckpt)", name)
}

func main() {
	name := flag.String("workload", "", "workload: bert-deepum, bert-um or serve-ckpt")
	seed := flag.Int64("seed", 1, "workload seed (Config.Seed / RunSpec.Seed)")
	seconds := flag.Float64("seconds", 40, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics")
	flag.Parse()
	correct, err := run(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it, prints the report and the JSON
// result, and reports whether every operation passed its checks.
func run(name string, seed int64, d time.Duration, traced bool) (bool, error) {
	if d <= 0 {
		return false, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return false, fmt.Errorf("creating %s: %w", workRoot, err)
	}
	workDir, err := os.MkdirTemp(workRoot, "work-")
	if err != nil {
		return false, fmt.Errorf("creating work directory: %w", err)
	}
	defer os.RemoveAll(workDir)

	var w workload
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		cand, err := newWorkload(name, seed, filepath.Join(workDir, strconv.Itoa(i)))
		if err == nil {
			err = cand.setup()
		}
		if err != nil {
			if cand != nil {
				cand.close()
			}
			return false, fmt.Errorf("set-up of %s: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if w != nil {
			w.close()
		}
		w = cand
	}
	defer w.close()

	rep := newReport()
	header(rep, name, seed, d, traced)
	if !traced {
		setupPeak := peakRSSMB()
		rss := startRSSSampler(d / rssSegments)
		if err := w.window(d, false, false); err != nil {
			rss.finish()
			return false, err
		}
		peaks := rss.finish()
		w.endToEnd(rep)
		_, med, _ := quartiles(setups)
		rep.set("setup_s", med, "s")
		rep.timing("setup_s", setups, "s")
		rep.set("peak_rss_mb", median(peaks), "MB")
		rep.timing("peak_rss_mb (per-segment VmHWM)", peaks, "MB")
		rep.printf("  %-34s %.1f MB", "VmHWM through set-up", setupPeak)
	} else {
		if err := w.window(d/2, false, true); err != nil {
			return false, err
		}
		if err := w.window(d/2, true, false); err != nil {
			return false, err
		}
		w.perLayer(rep)
	}
	if err := rep.complete(traced); err != nil {
		return false, err
	}

	o := w.ops()
	res := result{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   rep.metrics,
	}
	rep.printf("operations: %d attempted, %d failed", o.attempted, o.failed)
	for _, e := range o.errs {
		rep.printf("  FAILED: %s", e)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	names := make([]string, 0, len(rep.metrics))
	for k := range rep.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("metrics:")
	for _, k := range names {
		fmt.Printf("  %-40s %14.6g %s\n", k, rep.metrics[k].Value, rep.metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// header prints the host facts and the run parameters.
func header(r *report, name string, seed int64, d time.Duration, traced bool) {
	mode := "untraced (end-to-end metrics)"
	if traced {
		mode = "untraced+traced windows (per-layer metrics)"
	}
	r.printf("deepum benchmark: workload %s, seed %d, window %v, %s", name, seed, d, mode)
	r.printf("host: cpu %q, nproc %d, GOMAXPROCS %d, %s %s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	r.printf("simulated times (sim_ms) come from the calibrated model and are not validated against hardware;")
	r.printf("host timings are median and quartiles over the window's samples (n = sample count).")
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// rssSegments is how many consecutive segments the untraced window is cut
// into for peak_rss_mb: each segment's peak resident set is read and reset,
// and the metric is the median segment peak. The peak of the whole window
// hinges on when single garbage collections land; the median segment peak
// does not.
const rssSegments = 8

// rssSampler records the peak resident set of consecutive segments.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64
	resetErr   error
}

func startRSSSampler(every time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.resetErr = resetPeakRSS()
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if s.resetErr == nil {
					s.peaks = append(s.peaks, peakRSSMB())
					s.resetErr = resetPeakRSS()
				}
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the segment peaks. Without a
// working reset (or before the first segment ends) it returns the peak
// since the sampler started.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	if s.resetErr != nil || len(s.peaks) == 0 {
		return append(s.peaks, peakRSSMB())
	}
	return s.peaks
}

// resetPeakRSS resets the kernel's peak resident set counter (VmHWM).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same exclusive method as Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

// quantile interpolates the p-quantile of sorted s at position p*(n+1).
func quantile(s []float64, p float64) float64 {
	pos := p * float64(len(s)+1)
	j := int(math.Floor(pos))
	switch {
	case j < 1:
		return s[0]
	case j >= len(s):
		return s[len(s)-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// percentile is quantile on an unsorted sample set.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, p)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
