package main

import (
	"context"
	"fmt"
	"go/parser"
	"go/token"
	"runtime"
	"strings"
	"time"

	"defuse/internal/bench"
	"defuse/internal/codegen"
	"defuse/internal/instrument"
	"defuse/internal/lang"
	"defuse/telemetry"
)

// The compile workload parses and instruments the Table 2 kernels as
// Resilient and Resilient-Optimized and lowers all three variants to Go
// with codegen.Source. No kernel executes in the timed part. The first
// pass covers every kernel; then, for the run's duration, the kernels
// whose first compile took under a second repeat, and every kernel's
// Original repeats, so each gets several samples (ADI's protected compiles
// alone take several seconds each).

type compileWorkload struct {
	kernels []*bench.Benchmark
	// want holds each kernel's Original outputs on the interpreter at
	// oracleParams, computed in set-up.
	want map[string]map[string][]float64
	// checked marks variants whose compiled output was already verified.
	checked map[string]bool
}

// setupRepeats is how many times the cheap set-up runs; setup_s is the
// median.
const setupRepeats = 5

func (w *compileWorkload) setup(ctx context.Context, e *env) ([]float64, error) {
	var err error
	if w.kernels, err = suite(e.opts.kernels); err != nil {
		return nil, err
	}
	w.checked = map[string]bool{}
	return e.repeatSetup(setupRepeats, func(lap func()) error {
		w.want = map[string]map[string][]float64{}
		for _, b := range w.kernels {
			if err := ctx.Err(); err != nil {
				return err
			}
			prog, err := lang.Parse(b.Source)
			if err != nil {
				return fmt.Errorf("%s: %w", b.Name, err)
			}
			if w.want[b.Name], err = interpOutputs(b, prog, oracleParams[b.Name], e.opts.seed); err != nil {
				return fmt.Errorf("%s/Original on the interpreter: %w", b.Name, err)
			}
			lap()
		}
		return nil
	})
}

// compileItem is one kernel variant's compile in one pass.
type compileItem struct {
	parse, instr, lower time.Duration
	phases              []instrument.PhaseTiming
	instrAlloc          uint64
	lowerAlloc          uint64
	goBytes             int
}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// variantOptions repeats the instrumentation options bench uses per
// variant: compileOne calls instrument.Instrument itself, because it needs
// the Report.Phases that bench.BuildVariant does not return.
func variantOptions(v bench.Variant) instrument.Options {
	if v == bench.ResilientOpt {
		return instrument.Options{Split: true, Inspector: true}
	}
	return instrument.Options{}
}

// compileOne parses b, instruments it as v (Original is not instrumented)
// and lowers the result to Go, timing each step.
func compileOne(b *bench.Benchmark, v bench.Variant, tr *tracer, parent telemetry.SpanContext) (*compileItem, *lang.Program, []byte, error) {
	it := &compileItem{}
	var prog *lang.Program
	var err error
	it.parse = tr.call(parent, "lang", "lang.Parse", func() { prog, err = lang.Parse(b.Source) })
	if err != nil {
		return nil, nil, nil, err
	}
	if v != bench.Original {
		a0 := allocated()
		sp := tr.start(parent, "instrument", "instrument.Instrument",
			telemetry.String("kernel", b.Name), telemetry.String("variant", string(v)))
		t0 := time.Now()
		res, err := instrument.Instrument(prog, variantOptions(v))
		it.instr = time.Since(t0)
		if err != nil {
			sp.End()
			return nil, nil, nil, fmt.Errorf("instrument: %w", err)
		}
		instrumentSpan(sp, &res.Report)
		it.instrAlloc = allocated() - a0
		it.phases = res.Report.Phases
		prog = res.Prog
	}
	var src []byte
	a0 := allocated()
	it.lower = tr.call(parent, "codegen", "codegen.Source", func() {
		src, err = codegen.Source(prog, "run_"+strings.ToLower(b.Name))
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("lower: %w", err)
	}
	it.lowerAlloc = allocated() - a0
	it.goBytes = len(src)
	return it, prog, src, nil
}

// check verifies one compiled variant, outside the timers: the program
// passes lang.Check and re-parses to itself, the Go source parses, and on
// the interpreter at a small size it reproduces Original's outputs with a
// clean final assert.
func (w *compileWorkload) check(b *bench.Benchmark, prog *lang.Program, src []byte, seed int64) (int, error) {
	if err := lang.Check(prog); err != nil {
		return 0, fmt.Errorf("lang.Check: %w", err)
	}
	text := lang.Print(prog)
	again, err := lang.Parse(text)
	if err != nil {
		return 0, fmt.Errorf("re-parse: %w", err)
	}
	if lang.Print(again) != text {
		return 0, fmt.Errorf("re-parse does not reproduce the program")
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "gen.go", src, 0); err != nil {
		return 0, fmt.Errorf("generated Go does not parse: %w", err)
	}
	out, err := interpOutputs(b, prog, oracleParams[b.Name], seed)
	if err != nil {
		return 0, fmt.Errorf("interpreter run: %w", err)
	}
	if diff := sameFloats(w.want[b.Name], out); diff != "" {
		return 0, fmt.Errorf("output differs from Original: %s", diff)
	}
	return len(text), nil
}

// repeatBelow is the first-pass compile time under which a kernel is
// compiled again for more samples.
const repeatBelow = time.Second

func (w *compileWorkload) measure(ctx context.Context, e *env, d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{}
	items := newSeries()  // per variant: parse+instrument+lower seconds
	scaled := newSeries() // the same, scaled to the reference speed
	phases := newSeries()
	srcBytes := map[string]int{}
	var instrAlloc, lowerAlloc, goBytes float64
	slow := map[string]bool{}
	// The first pass compiles everything; the quick kernels then repeat
	// for d, and at least three times.
	var start time.Time
	clk := e.cal.clock(1)
	for pass := 0; pass < 4 || time.Since(start) < d; pass++ {
		if pass == 1 {
			start = time.Now()
		}
		root := tr.start(telemetry.SpanContext{}, "bench", "compile.pass")
		for _, b := range w.kernels {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			kernelTime := time.Duration(0)
			for _, v := range variants {
				// A slow kernel's protected variants compile in the first
				// pass only; its Original, which is quick, every pass.
				if pass > 0 && slow[b.Name] && v != bench.Original {
					continue
				}
				name := b.Name + "." + string(v)
				m.attempted++
				runtime.GC() // each compile starts from a collected heap
				it, prog, src, err := compileOne(b, v, tr, root.Context())
				f := clk.next()
				if err != nil {
					m.fail("%s: %v", name, err)
					continue
				}
				kernelTime += it.parse + it.instr + it.lower
				items.add(name, (it.parse + it.instr + it.lower).Seconds())
				scaled.add(name, (it.parse+it.instr+it.lower).Seconds()*f)
				phases.add(name+"/parse", it.parse.Seconds())
				phases.add(name+"/lower", it.lower.Seconds())
				for _, p := range it.phases {
					phases.add(name+"/"+p.Phase, p.Duration.Seconds())
				}
				if pass > 0 {
					continue
				}
				instrAlloc += float64(it.instrAlloc)
				lowerAlloc += float64(it.lowerAlloc)
				goBytes += float64(it.goBytes)
				if !w.checked[name] {
					n, err := w.check(b, prog, src, e.opts.seed)
					if err != nil {
						m.fail("%s: %v", name, err)
						continue
					}
					w.checked[name] = true
					if v != bench.Original {
						srcBytes[name] = n
					}
				}
			}
			if pass == 0 && kernelTime > repeatBelow {
				slow[b.Name] = true
			}
		}
		root.End()
	}

	// One pass is estimated as the sum over variants of each step's median.
	sumPhase := func(step string) float64 {
		t := 0.0
		for _, b := range w.kernels {
			for _, v := range variants {
				if s := phases.vals[b.Name+"."+string(v)+"/"+step]; len(s) > 0 {
					t += median(s)
				}
			}
		}
		return t
	}
	layer := map[string]float64{
		"lang.parse_s":           sumPhase("parse"),
		"pdg.extract_s":          sumPhase("pdg.extract"),
		"deps.analysis_s":        sumPhase("dependence.analysis"),
		"usecount.counting_s":    sumPhase("polyhedral.counting"),
		"instrument.rewrite_s":   sumPhase("classify") + sumPhase("rewrite"),
		"instrument.inspector_s": sumPhase("inspector.hoisting"),
		"instrument.split_s":     sumPhase("index-set.splitting"),
		"instrument.check_s":     sumPhase("check"),
		"codegen.lower_s":        sumPhase("lower"),
		"instrument.alloc_mb":    instrAlloc / (1 << 20),
		"codegen.lower_alloc_mb": lowerAlloc / (1 << 20),
	}
	var src float64
	for _, n := range srcBytes {
		src += float64(n)
	}
	layer["instrument.src_bytes"] = src
	group := map[string][]float64{}
	pass := 0.0
	for _, b := range w.kernels {
		for _, v := range variants {
			name := b.Name + "." + string(v)
			if len(items.vals[name]) == 0 {
				continue
			}
			med := items.median(name)
			pass += med
			group["op_ms"] = append(group["op_ms"], scaled.median(name)*1e3)
			group["raw_op_ms"] = append(group["raw_op_ms"], med*1e3)
			orig := b.Name + "." + string(bench.Original)
			if v != bench.Original && len(items.vals[orig]) > 0 {
				layer["compile."+name+"_s"] = med
				group["compile_gm_ms"] = append(group["compile_gm_ms"], med*1e3)
				group["overhead_gm"] = append(group["overhead_gm"], med/items.median(orig))
			}
		}
	}
	gm := m.geomeans(group)
	m.e2e = map[string]float64{"op_ms": gm["op_ms"]}
	m.rawOpMS = gm["raw_op_ms"]
	m.named = map[string]float64{
		"compile_s":     pass,
		"compile_gm_ms": gm["compile_gm_ms"],
		"gen_go_bytes":  goBytes,
		"peak_rss_mb":   peakRSSMB(),
	}
	layer["overhead_gm"] = gm["overhead_gm"]
	m.layer = layer
	m.timings = items.summaries("ms", 1e3)
	m.inputs = map[string]any{
		"kernels":             names(w.kernels),
		"oracle_params":       oracleSubset(w.kernels),
		"repeat_below_s":      repeatBelow.Seconds(),
		"single_pass_kernels": sortedKeys(slow),
	}
	return m, nil
}

func (w *compileWorkload) close() error { return nil }

func names(bs []*bench.Benchmark) []string {
	var out []string
	for _, b := range bs {
		out = append(out, b.Name)
	}
	return out
}

func oracleSubset(bs []*bench.Benchmark) map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for _, b := range bs {
		out[b.Name] = oracleParams[b.Name]
	}
	return out
}
