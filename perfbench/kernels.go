package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"defuse/internal/bench"
	"defuse/telemetry"
)

// The kernels workload runs the committed generated kernels in all three
// variants. Every repetition gets a fresh machine with seeded data, and
// only the kernel call is timed. Set-up instruments the protected variants
// (the machines need their layouts) and checks Original against the
// interpreter.

type kernelsWorkload struct {
	variants []*compiled
	// want holds each kernel's Original outputs, checked against the
	// interpreter during set-up.
	want map[string]map[string][]float64
}

func (w *kernelsWorkload) setup(ctx context.Context, e *env) ([]float64, error) {
	kernels, err := suite(e.opts.kernels)
	if err != nil {
		return nil, err
	}
	return e.repeatSetup(suiteRepeats, func(lap func()) error {
		var err error
		if w.variants, err = compileSuite(ctx, kernels, lap); err != nil {
			return err
		}
		w.want = map[string]map[string][]float64{}
		for _, c := range w.variants {
			if c.v != bench.Original {
				continue
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			ref, err := interpOutputs(c.b, c.prog, c.params, e.opts.seed)
			if err != nil {
				return fmt.Errorf("%s on the interpreter: %w", c.name(), err)
			}
			m, err := c.machine(e.opts.seed)
			if err != nil {
				return err
			}
			if err := c.kernel.Fn(m, 0, 1); err != nil {
				return fmt.Errorf("%s: %w", c.name(), err)
			}
			got, err := floatOutputs(c.b, m)
			if err != nil {
				return err
			}
			if diff := sameFloats(ref, got); diff != "" {
				return fmt.Errorf("%s: generated Original differs from the interpreter: %s", c.name(), diff)
			}
			w.want[c.b.Name] = got
			lap()
		}
		return nil
	})
}

// checkEvery is how often (in rounds) every output is compared bit for
// bit; the other rounds check only that the kernel ran without a
// detection or error.
const checkEvery = 8

func (w *kernelsWorkload) measure(ctx context.Context, e *env, d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{}
	times := newSeries()  // per variant: kernel seconds
	scaled := newSeries() // the same, scaled to the reference speed
	ratios := newSeries() // per protected variant: time ÷ Original's in the same round
	loads, stores := map[bench.Variant]float64{}, map[bench.Variant]float64{}
	clk := e.cal.clock(1)
	start := time.Now()
	for round := 0; round < 3 || time.Since(start) < d; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Collect the previous round's machines now, so garbage collection
		// rarely lands inside a timed kernel call.
		runtime.GC()
		root := tr.start(telemetry.SpanContext{}, "bench", "kernels.round")
		orig := map[string]float64{}
		roundTimes := map[string]float64{}
		for _, c := range w.variants {
			mach, err := c.machine(e.opts.seed)
			if err != nil {
				return nil, err
			}
			m.attempted++
			sp := tr.start(root.Context(), "codegen", "gennative."+c.name())
			t0 := time.Now()
			err = c.kernel.Fn(mach, 0, 1)
			dt := time.Since(t0).Seconds()
			sp.End()
			if err != nil {
				m.fail("%s: %v", c.name(), err)
				continue
			}
			times.add(c.name(), dt)
			roundTimes[c.name()] = dt
			if c.v == bench.Original {
				orig[c.b.Name] = dt
			} else if o := orig[c.b.Name]; o > 0 {
				ratios.add(c.name(), dt/o)
			}
			if round == 0 {
				loads[c.v] += float64(mach.Mem().Loads())
				stores[c.v] += float64(mach.Mem().Stores())
			}
			if round%checkEvery == 0 {
				got, err := floatOutputs(c.b, mach)
				if err != nil {
					return nil, err
				}
				if diff := sameFloats(w.want[c.b.Name], got); diff != "" {
					m.fail("%s: output differs from Original: %s", c.name(), diff)
				}
			}
		}
		root.End()
		f := clk.next()
		for _, c := range w.variants {
			if dt, ok := roundTimes[c.name()]; ok {
				scaled.add(c.name(), dt*f)
			}
		}
	}

	layer := map[string]float64{}
	group := map[string][]float64{}
	for _, c := range w.variants {
		layer["gennative."+c.name()+"_s"] = times.median(c.name())
		group["op_ms"] = append(group["op_ms"], scaled.median(c.name())*1e3)
		group["raw_op_ms"] = append(group["raw_op_ms"], times.median(c.name())*1e3)
		if c.v == bench.Original {
			continue
		}
		r := ratios.median(c.name())
		group["protected"] = append(group["protected"], r)
		if c.v == bench.Resilient {
			group["overhead_resilient_gm"] = append(group["overhead_resilient_gm"], r)
			continue
		}
		group["overhead_optimized_gm"] = append(group["overhead_optimized_gm"], r)
		group["kernel_opt_gm_ms"] = append(group["kernel_opt_gm_ms"], times.median(c.name())*1e3)
		if c.b.Irregular {
			group["kernels.irregular_opt_gm"] = append(group["kernels.irregular_opt_gm"], r)
		} else {
			group["kernels.affine_opt_gm"] = append(group["kernels.affine_opt_gm"], r)
		}
	}
	gm := m.geomeans(group)
	for _, v := range variants {
		layer["memsim.loads."+string(v)] = loads[v]
		layer["memsim.stores."+string(v)] = stores[v]
	}
	for _, k := range []string{"kernels.affine_opt_gm", "kernels.irregular_opt_gm"} {
		if v, ok := gm[k]; ok {
			layer[k] = v
		}
	}
	layer["overhead_gm"] = gm["protected"]
	m.e2e = map[string]float64{"op_ms": gm["op_ms"]}
	m.rawOpMS = gm["raw_op_ms"]
	m.named = map[string]float64{
		"overhead_resilient_gm": gm["overhead_resilient_gm"],
		"overhead_optimized_gm": gm["overhead_optimized_gm"],
		"kernel_opt_gm_ms":      gm["kernel_opt_gm_ms"],
	}
	m.layer = layer
	m.timings = times.summaries("ms", 1e3)
	ratios.addTo(m.timings, "ratio.", "ratio", 1)
	m.inputs = map[string]any{"params": paramsOf(w.variants), "check_every_rounds": checkEvery}
	return m, nil
}

func (w *kernelsWorkload) close() error { return nil }

// paramsOf lists the problem size of each kernel in the run.
func paramsOf(cs []*compiled) map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for _, c := range cs {
		out[c.b.Name] = c.params
	}
	return out
}
