package main

import (
	"io"
	"time"

	"deepum/internal/correlation"
	"deepum/internal/policy"
	"deepum/internal/um"
)

// timedPolicyName is the registered name of the timing wrapper: a run
// selecting it runs the default correlation chaser with every call counted
// and one call in sampleEvery timed.
const timedPolicyName = "benchmark-timed-correlation"

// sampleEvery is the mean sampling interval of the wrapper's timer. Timing
// every call (~10^6 per Train) costs more than the calls themselves.
const sampleEvery = 64

// policyTimer accumulates one Train call's policy counts. The driver calls
// its policy from one goroutine, and the benchmark reads the totals after
// Train returns, so the fields need no locking.
type policyTimer struct {
	calls   int64
	sampled int64
	sampleN time.Duration
	rng     uint64
}

// activeTimer is the timer the next wrapper instance reports into; the
// benchmark sets it before each traced Train call.
var activeTimer = newPolicyTimer()

func newPolicyTimer() *policyTimer { return &policyTimer{rng: 0x9e3779b97f4a7c15} }

func init() {
	policy.Register(timedPolicyName,
		"correlation chaser behind a sampling call timer (benchmark instrumentation)",
		func(o policy.Options) (policy.Policy, error) {
			inner, err := policy.New(policy.DefaultName, o)
			if err != nil {
				return nil, err
			}
			return &timedPolicy{inner: inner, t: activeTimer}, nil
		})
}

// sample counts one call and reports whether to time it. The xorshift
// draw keeps the sampled calls from aliasing with periodic call patterns.
func (t *policyTimer) sample() bool {
	t.calls++
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng%sampleEvery == 0
}

func (t *policyTimer) done(t0 time.Time) {
	t.sampleN += time.Since(t0)
	t.sampled++
}

// hostTime estimates the total time spent inside the wrapped policy:
// sampled time minus the bias calibrate measured per span, scaled to all
// calls.
func (t *policyTimer) hostTime(spanBias time.Duration) time.Duration {
	if t.sampled == 0 {
		return 0
	}
	inside := t.sampleN - time.Duration(t.sampled)*spanBias
	if inside < 0 {
		inside = 0
	}
	return time.Duration(float64(inside) * float64(t.calls) / float64(t.sampled))
}

// timedPolicy forwards every policy.Policy method, and the Tables accessor
// the driver probes for, to the correlation chaser it wraps.
type timedPolicy struct {
	inner policy.Policy
	t     *policyTimer
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) KernelLaunch(id correlation.ExecID) {
	if p.t.sample() {
		t0 := time.Now()
		p.inner.KernelLaunch(id)
		p.t.done(t0)
		return
	}
	p.inner.KernelLaunch(id)
}

func (p *timedPolicy) KernelComplete(id correlation.ExecID) {
	if p.t.sample() {
		t0 := time.Now()
		p.inner.KernelComplete(id)
		p.t.done(t0)
		return
	}
	p.inner.KernelComplete(id)
}

func (p *timedPolicy) OnFault(b um.BlockID) bool {
	if p.t.sample() {
		t0 := time.Now()
		r := p.inner.OnFault(b)
		p.t.done(t0)
		return r
	}
	return p.inner.OnFault(b)
}

func (p *timedPolicy) Next() policy.Step {
	if p.t.sample() {
		t0 := time.Now()
		s := p.inner.Next()
		p.t.done(t0)
		return s
	}
	return p.inner.Next()
}

func (p *timedPolicy) NoteEviction(b um.BlockID) {
	if p.t.sample() {
		t0 := time.Now()
		p.inner.NoteEviction(b)
		p.t.done(t0)
		return
	}
	p.inner.NoteEviction(b)
}

func (p *timedPolicy) Discard() {
	p.t.calls++
	p.inner.Discard()
}

func (p *timedPolicy) SetGate(g policy.Gate)  { p.inner.SetGate(g) }
func (p *timedPolicy) SizeBytes() int64       { return p.inner.SizeBytes() }
func (p *timedPolicy) Save(w io.Writer) error { return p.inner.Save(w) }

// Tables forwards the correlation tables; without it the driver would
// treat the wrapped chaser as a table-less policy.
func (p *timedPolicy) Tables() *correlation.Tables {
	if tp, ok := p.inner.(interface{ Tables() *correlation.Tables }); ok {
		return tp.Tables()
	}
	return nil
}

// stubPolicy does nothing; calibrate times the wrapper around it.
type stubPolicy struct{ policy.Policy }

func (stubPolicy) Next() policy.Step { return policy.Step{} }

// calibrate runs the wrapper around a policy that does nothing. It returns
// the wrapper's own cost per call (counting, sampling and clock reads,
// spread over all calls) and the time a sampled span reports for an empty
// call, which hostTime subtracts from every sampled span.
func calibrate() (perCall, spanBias time.Duration) {
	const n = 1 << 21
	var direct policy.Policy = stubPolicy{}
	var sink policy.Step
	var bias time.Duration
	var dDirect, dWrapped time.Duration
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			sink = direct.Next()
		}
		d := time.Since(t0)
		timer := newPolicyTimer()
		wrapped := &timedPolicy{inner: stubPolicy{}, t: timer}
		t0 = time.Now()
		for i := 0; i < n; i++ {
			sink = wrapped.Next()
		}
		w := time.Since(t0)
		if round == 0 || w-d < dWrapped-dDirect {
			dDirect, dWrapped = d, w
			bias = timer.sampleN / time.Duration(timer.sampled)
		}
	}
	_ = sink
	perCall = (dWrapped - dDirect) / n
	if perCall < 0 {
		perCall = 0
	}
	return perCall, bias
}
