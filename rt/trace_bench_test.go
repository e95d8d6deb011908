package rt

import (
	"sort"
	"testing"
	"time"

	"defuse/internal/checksum"
	"defuse/telemetry"
)

// The span layer must be free when disabled: the shard fold path never
// consults the tracer (spans record only on the locked merge/drain/verify
// operations), and even those pay a single nil check when no tracer is
// armed. These benchmarks and the guard below pin that contract — the
// "disabled-tracing ≤2%" acceptance budget of the observability ISSUE.

// tracedFoldLoop is shardFoldLoop with periodic merges, so the tracer nil
// check on the merge path is actually exercised rather than amortised to one
// hit per benchmark run.
func tracedFoldLoop(sh *Shard, n int) {
	tr := sh.Tracker()
	v := 1.5
	for i := 0; i < n; i++ {
		v = Def(tr, v, 1)
		_ = UseKnown(tr, v)
		if i%1024 == 1023 {
			sh.Merge()
			tr = sh.Tracker()
		}
	}
	sh.Merge()
}

func BenchmarkShardedFoldNoTracer(b *testing.B) {
	st := NewShardedWith(checksum.ModAdd)
	sh := st.Shard()
	b.ReportAllocs()
	tracedFoldLoop(sh, b.N)
}

// discardSpans is the cheapest possible enabled sink, isolating the span
// bookkeeping cost itself.
type discardSpans struct{}

func (discardSpans) RecordSpan(telemetry.SpanData) {}

func BenchmarkShardedFoldTracerEnabled(b *testing.B) {
	st := NewShardedWith(checksum.ModAdd)
	st.SetTracer(telemetry.NewTracer(discardSpans{}), telemetry.SpanContext{})
	sh := st.Shard()
	b.ReportAllocs()
	tracedFoldLoop(sh, b.N)
}

// TestDisabledTracerOverheadGuard pins the disabled path: a ShardedTracker
// with a nil tracer armed must fold within 2% of one that never heard of
// tracing. The fold loop merges every 1024 ops so the guarded (nil-checked)
// merge path runs thousands of times per measurement. The two folds run in
// alternating pairs of equal op counts, the order flipping from pair to
// pair so clock drift and thermal ramps hit both sides equally, and the
// guard reads the median of the per-pair ratios, which a preempted sample
// on a busy host cannot move. An over-budget ratio means span bookkeeping
// leaked onto the fold or per-merge path.
func TestDisabledTracerOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	plain := NewShardedWith(checksum.ModAdd)
	shPlain := plain.Shard()
	disabled := NewShardedWith(checksum.ModAdd)
	disabled.SetTracer(nil, telemetry.SpanContext{})
	shDisabled := disabled.Shard()
	fold := func(sh *Shard, n int) time.Duration {
		start := time.Now()
		tracedFoldLoop(sh, n)
		return time.Since(start)
	}

	// Size one sample to at least 20 ms of folding; this also warms both
	// trackers.
	n := 1 << 16
	for fold(shPlain, n) < 20*time.Millisecond {
		n *= 2
	}
	fold(shDisabled, n)

	const pairs = 41
	ratios := make([]float64, pairs)
	var plainSum, tracedSum time.Duration
	for i := range ratios {
		var base, traced time.Duration
		if i%2 == 0 {
			base = fold(shPlain, n)
			traced = fold(shDisabled, n)
		} else {
			traced = fold(shDisabled, n)
			base = fold(shPlain, n)
		}
		plainSum += base
		tracedSum += traced
		ratios[i] = float64(traced) / float64(base)
	}
	sort.Float64s(ratios)
	ratio := ratios[pairs/2]
	ops := float64(n) * pairs
	t.Logf("no-tracer %.2f ns/op, disabled-tracer %.2f ns/op; per-pair ratio median %.3f, quartiles %.3f..%.3f over %d pairs of %d ops (guard 1.02x)",
		float64(plainSum.Nanoseconds())/ops, float64(tracedSum.Nanoseconds())/ops,
		ratio, ratios[pairs/4], ratios[3*pairs/4], pairs, n)
	if ratio > 1.02 {
		t.Errorf("disabled-tracer fold overhead ratio %.3f exceeds the 2%% guard", ratio)
	}
}

// TestTracerSpansOnShardOps checks that an armed tracer sees the locked-path
// spans (merge, verify, epoch.end) parented under the supervisor context it
// was armed with — and that the fold path emits none.
func TestTracerSpansOnShardOps(t *testing.T) {
	buf := telemetry.NewSpanBuffer(0)
	tr := telemetry.NewTracer(buf)
	root := tr.Start(telemetry.SpanContext{}, "run")

	st := NewShardedWith(checksum.ModAdd)
	st.SetTracer(tr, root.Context())
	sh := st.Shard()
	v := Def(sh.Tracker(), 2.5, 1)
	_ = UseKnown(sh.Tracker(), v)
	if got := len(buf.Spans()); got != 0 {
		t.Fatalf("fold path recorded %d spans, want 0", got)
	}
	sh.Merge()
	if err := st.Verify(); err != nil {
		t.Fatal(err)
	}
	root.End()

	names := map[string]int{}
	for _, s := range buf.Spans() {
		names[s.Name]++
		if s.Name != "run" && s.Trace != root.Context().Trace {
			t.Errorf("span %q not in the supervisor's trace", s.Name)
		}
	}
	if names["shard.merge"] == 0 || names["verify"] == 0 {
		t.Errorf("missing locked-path spans: %v", names)
	}
}
