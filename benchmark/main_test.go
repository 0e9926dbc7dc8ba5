package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// Python: statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
// == [2.75, 5.5, 8.25].
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {med, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
		}
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"deepum/internal/correlation.(*ChainCursor).Next", "deepum/internal/core.(*Driver).fillQueue"}, "correlation"},
		{[]string{"runtime.mapaccess2", "deepum/internal/core.(*Driver).fillQueue"}, "core"},
		{[]string{"deepum/internal/policy/correlation.(*Chaser).Next"}, "policy"},
		{[]string{"syscall.Syscall", "os.(*File).Sync", "deepum/internal/supervisor/journal.(*Journal).Append"}, "journal"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "deepum/internal/sim.(*Timeline).Add"}, "runtime_alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "deepum/internal/um.(*Handler).HandleGroups"}, "runtime_gc"},
		{[]string{"deepum/internal/workload.Generic[go.shape.int]"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable"}, "other"},
	}
	for _, c := range cases {
		if got := moduleOf(c.frames); got != c.want {
			t.Errorf("moduleOf(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// A real profile from runtime/pprof decodes, and its samples land in a
// module.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	c, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c.samples == 0 {
		t.Skip("no samples collected")
	}
	var sum int64
	for _, n := range c.byModule {
		sum += n
	}
	if sum != c.samples {
		t.Fatalf("module counts sum to %d, want %d", sum, c.samples)
	}
}
