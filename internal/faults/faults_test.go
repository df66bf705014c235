package faults

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// stubBackend is a healthy detector answering a fixed detection set for every
// item, so the injector's behaviour is the only variable under test.
type stubBackend struct {
	dets  []metrics.Detection
	calls int
}

func (s *stubBackend) Name() string { return "stub" }

func (s *stubBackend) PredictBatchCtx(ctx context.Context, x *tensor.Tensor, _ float64) ([][]metrics.Detection, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.calls++
	out := make([][]metrics.Detection, x.Shape[0])
	for i := range out {
		out[i] = append([]metrics.Detection(nil), s.dets...)
	}
	return out, nil
}

func stubDets() []metrics.Detection {
	return []metrics.Detection{
		{Class: dataset.ClassUPO, B: geom.BoxF{X: 10, Y: 20, W: 30, H: 40}, Score: 0.9},
		{Class: dataset.ClassAGO, B: geom.BoxF{X: 1, Y: 2, W: 3, H: 4}, Score: 0.5},
	}
}

func smallTensor(n int) *tensor.Tensor {
	x := tensor.New(n, 1, 2, 2)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	return x
}

// decideSeq replays n Decide calls against a fresh plan built by mk.
func decideSeq(mk func() *Plan, n int) []Kind {
	p := mk()
	out := make([]Kind, 0, n)
	for i := 0; i < n; i++ {
		if f, ok := p.Decide(); ok {
			out = append(out, f.Kind)
		} else {
			out = append(out, Kind(-1))
		}
	}
	return out
}

func TestPlanDeterministicReplay(t *testing.T) {
	mk := func() *Plan {
		return NewPlan(7,
			Rule{Kind: Panic, Every: 13},
			Rule{Kind: Error, Rate: 0.3},
			Rule{Kind: Corrupt, Rate: 0.1},
		)
	}
	a := decideSeq(mk, 500)
	b := decideSeq(mk, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at call %d: %v vs %v", i, a[i], b[i])
		}
	}
	// A different seed must produce a different sequence (overwhelmingly
	// likely over 500 draws at rate 0.3).
	c := decideSeq(func() *Plan {
		return NewPlan(8,
			Rule{Kind: Panic, Every: 13},
			Rule{Kind: Error, Rate: 0.3},
			Rule{Kind: Corrupt, Rate: 0.1},
		)
	}, 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("seeds 7 and 8 produced identical 500-call sequences")
	}
}

func TestEveryPatternFiresOnExactCalls(t *testing.T) {
	p := NewPlan(1, Rule{Kind: Panic, Every: 3})
	for call := 1; call <= 12; call++ {
		_, fired := p.Decide()
		want := call%3 == 0
		if fired != want {
			t.Fatalf("call %d: fired=%v, want %v", call, fired, want)
		}
	}
	if got := p.Injected(Panic); got != 4 {
		t.Fatalf("Injected(Panic) = %d, want 4", got)
	}
	if got := p.Calls(); got != 12 {
		t.Fatalf("Calls = %d, want 12", got)
	}
}

func TestRateBounds(t *testing.T) {
	always := NewPlan(1, Rule{Kind: Error, Rate: 1})
	for i := 0; i < 50; i++ {
		if _, fired := always.Decide(); !fired {
			t.Fatalf("rate 1 did not fire on call %d", i+1)
		}
	}
	never := NewPlan(1, Rule{Kind: Error, Rate: 0})
	for i := 0; i < 50; i++ {
		if _, fired := never.Decide(); fired {
			t.Fatalf("rate 0 fired on call %d", i+1)
		}
	}
	empty := NewPlan(1)
	if _, fired := empty.Decide(); fired {
		t.Fatalf("plan with no rules fired")
	}
}

func TestRateApproximatesTarget(t *testing.T) {
	p := NewPlan(42, Rule{Kind: Error, Rate: 0.3})
	const n = 2000
	for i := 0; i < n; i++ {
		p.Decide()
	}
	got := float64(p.Injected(Error)) / n
	if got < 0.25 || got > 0.35 {
		t.Fatalf("rate 0.3 injected %.3f of calls", got)
	}
}

// TestPlanSharedAcrossWrappers: a plan is one call sequence, whichever
// wrapper consumes the call, so faulting two backends independently takes
// two plans.
func TestPlanSharedAcrossWrappers(t *testing.T) {
	p := NewPlan(1, Rule{Kind: Error, Every: 2})
	a, b := Wrap(&stubBackend{dets: stubDets()}, p), Wrap(&stubBackend{dets: stubDets()}, p)
	if _, err := a.PredictBatchCtx(context.Background(), smallTensor(1), 0.5); err != nil {
		t.Fatalf("plan call 1 (via a) failed: %v", err)
	}
	if _, err := b.PredictBatchCtx(context.Background(), smallTensor(1), 0.5); !errors.Is(err, ErrInjected) {
		t.Fatalf("plan call 2 (via b) = %v, want ErrInjected", err)
	}
	if p.Calls() != 2 || p.Injected(Error) != 1 {
		t.Fatalf("plan saw %d calls, %d errors; want 2 and 1", p.Calls(), p.Injected(Error))
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	p := NewPlan(1,
		Rule{Kind: Panic, Every: 2},
		Rule{Kind: Error, Rate: 1},
	)
	if f, _ := p.Decide(); f.Kind != Error {
		t.Fatalf("call 1: got %v, want Error (panic rule idle)", f.Kind)
	}
	if f, _ := p.Decide(); f.Kind != Panic {
		t.Fatalf("call 2: got %v, want Panic (listed first)", f.Kind)
	}
}

func TestErrorRuleDefaultsToErrInjected(t *testing.T) {
	p := NewPlan(1, Rule{Kind: Error, Rate: 1})
	f, _ := p.Decide()
	if !errors.Is(f.Err, ErrInjected) {
		t.Fatalf("fault error = %v, want ErrInjected", f.Err)
	}
	custom := errors.New("boom")
	p2 := NewPlan(1, Rule{Kind: Error, Rate: 1, Err: custom})
	f2, _ := p2.Decide()
	if !errors.Is(f2.Err, custom) {
		t.Fatalf("fault error = %v, want custom", f2.Err)
	}
}

func TestNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	if _, ok := p.Decide(); ok {
		t.Fatalf("nil plan injected")
	}
	if p.Calls() != 0 || p.Injected(Error) != 0 || p.TotalInjected() != 0 {
		t.Fatalf("nil plan reported activity")
	}
	if got := p.String(); !strings.Contains(got, "no fault plan") {
		t.Fatalf("nil plan String = %q", got)
	}
}

func TestWrapperTransparentWithoutFaults(t *testing.T) {
	inner := &stubBackend{dets: stubDets()}
	d := Wrap(inner, NewPlan(1)) // no rules: never fires
	x := smallTensor(2)

	got, err := detect.Predict(context.Background(), d, x, 0, 0.5)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	want := stubDets()
	if len(got) != len(want) {
		t.Fatalf("got %d detections, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("detection %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if d.Name() != "stub" {
		t.Fatalf("Name = %q, want stub", d.Name())
	}
	if out, err := d.PredictBatchCtx(context.Background(), x, 0.5); err != nil || len(out) != 2 {
		t.Fatalf("PredictBatchCtx: %d items, err %v, want 2", len(out), err)
	}
}

func TestWrapperErrorFault(t *testing.T) {
	inner := &stubBackend{dets: stubDets()}
	d := Wrap(inner, NewPlan(1, Rule{Kind: Error, Rate: 1}))
	x := smallTensor(1)

	if _, err := detect.Predict(context.Background(), d, x, 0, 0.5); !errors.Is(err, ErrInjected) {
		t.Fatalf("single-screen error = %v, want ErrInjected", err)
	}
	if out, err := d.PredictBatchCtx(context.Background(), smallTensor(2), 0.5); !errors.Is(err, ErrInjected) || out != nil {
		t.Fatalf("batch: out = %v, error = %v, want nil and ErrInjected", out, err)
	}
	if inner.calls != 0 {
		t.Fatalf("inner ran %d times under an error fault", inner.calls)
	}
}

func TestWrapperPanicFault(t *testing.T) {
	inner := &stubBackend{dets: stubDets()}
	d := Wrap(inner, NewPlan(1, Rule{Kind: Panic, Rate: 1}))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "injected panic") {
			t.Fatalf("panic value %v", r)
		}
	}()
	detect.Predict(context.Background(), d, smallTensor(1), 0, 0.5)
}

func TestWrapperLatencyFault(t *testing.T) {
	inner := &stubBackend{dets: stubDets()}
	spike := 20 * time.Millisecond
	d := Wrap(inner, NewPlan(1, Rule{Kind: Latency, Rate: 1, Latency: spike}))

	start := time.Now()
	dets, err := detect.Predict(context.Background(), d, smallTensor(1), 0, 0.5)
	if err != nil || len(dets) != 2 {
		t.Fatalf("latency fault should still succeed: dets=%v err=%v", dets, err)
	}
	if el := time.Since(start); el < spike {
		t.Fatalf("call returned in %v, want >= %v", el, spike)
	}

	// A context cancelled mid-spike aborts the wait without running the
	// backend.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	before := inner.calls
	if _, err := detect.Predict(ctx, d, smallTensor(1), 0, 0.5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled spike error = %v", err)
	}
	if inner.calls != before {
		t.Fatalf("backend ran despite the spike being cancelled")
	}
}

func TestWrapperCorruptFault(t *testing.T) {
	inner := &stubBackend{dets: stubDets()}
	d := Wrap(inner, NewPlan(1, Rule{Kind: Corrupt, Rate: 1}))

	dets, err := detect.Predict(context.Background(), d, smallTensor(1), 0, 0.5)
	if err != nil {
		t.Fatalf("corrupt fault should not error: %v", err)
	}
	if len(dets) != 3 {
		t.Fatalf("corrupted result has %d detections, want 3 (2 + appended garbage)", len(dets))
	}
	if !math.IsNaN(dets[0].B.X) || !math.IsNaN(dets[0].Score) {
		t.Fatalf("first detection not NaN-damaged: %+v", dets[0])
	}
	if detect.ValidDetections(dets) {
		t.Fatalf("ValidDetections accepted a corrupted result")
	}
	// The batch seam corrupts item 0 only.
	out, err := d.PredictBatchCtx(context.Background(), smallTensor(2), 0.5)
	if err != nil {
		t.Fatalf("batch corrupt: %v", err)
	}
	if detect.ValidDetections(out[0]) {
		t.Fatalf("batch item 0 should be corrupted")
	}
	if !detect.ValidDetections(out[1]) {
		t.Fatalf("batch item 1 should be intact")
	}
}

func TestCorruptDetectionsDoesNotMutateInput(t *testing.T) {
	orig := stubDets()
	in := append([]metrics.Detection(nil), orig...)
	CorruptDetections(in)
	for i := range in {
		if in[i] != orig[i] {
			t.Fatalf("input slice mutated at %d: %+v", i, in[i])
		}
	}
}

func TestPlanStringCounts(t *testing.T) {
	p := NewPlan(1, Rule{Kind: Error, Every: 2})
	p.Decide()
	p.Decide()
	got := p.String()
	if !strings.Contains(got, "2 calls") || !strings.Contains(got, "1 errors") {
		t.Fatalf("String = %q", got)
	}
	if p.TotalInjected() != 1 {
		t.Fatalf("TotalInjected = %d", p.TotalInjected())
	}
}
