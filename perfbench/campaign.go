package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"defuse/internal/bench"
	"defuse/internal/checksum"
	"defuse/internal/codegen"
	"defuse/internal/faults"
	"defuse/internal/lang"
	"defuse/internal/recovery"
	"defuse/telemetry"
)

// The campaign workload runs seeded fault-injection trials in rounds of a
// fixed mix: Table 1 cells (synthetic words, single and dual checksum),
// epoch cells with rollback recovery and a hardened detector, and injected
// trials on the compiled kernels through faults.RunKernelTrial over
// faults.CodegenKernelBackend. Workers never exceed the CPUs available,
// capped at 2 so results compare across hosts.

const (
	table1Trials = 500 // per Table 1 cell per round
	table1Words  = 10000
	epochTrials  = 250 // per epoch cell per round
	kernelEpochs = 4
)

// kernelPolicy is the recovery policy of the kernel trials.
var kernelPolicy = recovery.Policy{MaxRetries: 2, MaxRestarts: 1}

type campaignWorkload struct {
	variants []*compiled // protected variants only
	want     map[string]map[string][]float64
	targets  map[string][]string
	workers  int
}

func campaignWorkers() int { return min(nproc(), 2) }

func (w *campaignWorkload) setup(ctx context.Context, e *env) ([]float64, error) {
	w.workers = campaignWorkers()
	kernels, err := suite(e.opts.kernels)
	if err != nil {
		return nil, err
	}
	return e.repeatSetup(suiteRepeats, func(lap func()) error { return w.setupOnce(ctx, kernels, e.opts.seed, lap) })
}

// setupOnce instruments the protected variants, computes Original's
// outputs, and checks that a clean supervised run of every protected
// variant verifies without a detection and reproduces them.
func (w *campaignWorkload) setupOnce(ctx context.Context, kernels []*bench.Benchmark, seed int64, lap func()) error {
	all, err := compileSuite(ctx, kernels, lap)
	if err != nil {
		return err
	}
	w.variants = nil
	w.want = map[string]map[string][]float64{}
	w.targets = map[string][]string{}
	for _, c := range all {
		if c.v == bench.Original {
			mach, err := c.machine(seed)
			if err != nil {
				return err
			}
			if err := c.kernel.Fn(mach, 0, 1); err != nil {
				return fmt.Errorf("%s: %w", c.name(), err)
			}
			if w.want[c.b.Name], err = floatOutputs(c.b, mach); err != nil {
				return err
			}
			w.targets[c.b.Name] = floatArrays(c.b.Program())
			continue
		}
		w.variants = append(w.variants, c)
	}
	for _, c := range w.variants {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr, mach, _, err := w.trial(ctx, c, seed, false, 0, &epochCalls{}, nil, telemetry.SpanContext{})
		if err != nil {
			return err
		}
		if tr.Outcome.Detected || tr.Err != "" {
			return fmt.Errorf("%s: clean trial detected a fault (err %q)", c.name(), tr.Err)
		}
		got, err := floatOutputs(c.b, mach)
		if err != nil {
			return err
		}
		if diff := sameFloats(w.want[c.b.Name], got); diff != "" {
			return fmt.Errorf("%s: clean trial output differs from Original: %s", c.name(), diff)
		}
		lap()
	}
	return nil
}

func floatArrays(p *lang.Program) []string {
	var out []string
	for _, d := range p.Decls {
		if d.Type == lang.TypeFloat && d.IsArray() {
			out = append(out, d.Name)
		}
	}
	return out
}

// epochCalls accumulates the time one kernel trial spends in the
// backend's epoch, verify and scrub calls.
type epochCalls struct {
	run, verify, scrub time.Duration
}

// timedBackend times the codegen backend's calls, with a span for each.
type timedBackend struct {
	*faults.CodegenKernelBackend
	tr     *tracer
	parent telemetry.SpanContext
	calls  *epochCalls
}

func (b *timedBackend) RunEpoch(k int) (err error) {
	b.calls.run += b.tr.call(b.parent, "codegen", "codegen.RunEpoch", func() { err = b.CodegenKernelBackend.RunEpoch(k) })
	return err
}

func (b *timedBackend) Verify() (err error) {
	b.calls.verify += b.tr.call(b.parent, "checksum", "checksum.Verify", func() { err = b.CodegenKernelBackend.Verify() })
	return err
}

func (b *timedBackend) Scrub() (err error) {
	b.calls.scrub += b.tr.call(b.parent, "checksum", "checksum.Scrub", func() { err = b.CodegenKernelBackend.Scrub() })
	return err
}

// cells returns one round's Table 1 and epoch cells, seeded per round.
func cells(seed int64, round int) (table1, epoch []faults.CoverageConfig) {
	s := seed*1_000_003 + int64(round)
	for i, dual := range []bool{false, true} {
		table1 = append(table1, faults.CoverageConfig{
			Kind: checksum.ModAdd, Words: table1Words, BitFlips: 2, Pattern: faults.Random,
			Dual: dual, Trials: table1Trials, Seed: s*4 + int64(i),
		})
	}
	for i, target := range []faults.Target{faults.TargetData, faults.TargetAccumulator} {
		epoch = append(epoch, faults.CoverageConfig{
			Kind: checksum.ModAdd, Words: 32, BitFlips: 1, Pattern: faults.Random,
			Trials: epochTrials, Seed: s*4 + 2 + int64(i), Epochs: 6, Recover: true,
			Hardened: true, Target: target,
		})
	}
	return table1, epoch
}

func (w *campaignWorkload) measure(ctx context.Context, e *env, d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{}
	perTrial := newSeries() // per round and kind: seconds per trial
	scaled := newSeries()   // the same, scaled to the reference speed
	phase := map[string]time.Duration{}
	trials := map[string]int{}
	kt := &kernelTally{m: m, trialTimes: newSeries(), ratios: newSeries()}
	rollbacks, table1Escapes := 0, 0
	clk := e.cal.clock(1)
	start := time.Now()
	for round := 0; round < 2 || time.Since(start) < d; round++ {
		runtime.GC() // as in the kernels workload: keep collection out of the timed phases
		root := tr.start(telemetry.SpanContext{}, "bench", "campaign.round")
		table1, epoch := cells(e.opts.seed, round)
		for _, kind := range []struct {
			name  string
			cells []faults.CoverageConfig
		}{{"table1", table1}, {"epoch", epoch}} {
			var res *faults.CampaignResult
			var err error
			dt := tr.call(root.Context(), "faults", "faults.Campaign.Run", func() {
				res, err = (&faults.Campaign{Cells: kind.cells, Workers: w.workers}).Run(ctx)
			})
			if err != nil {
				return nil, fmt.Errorf("%s cells: %w", kind.name, err)
			}
			n := 0
			for _, r := range res.Results {
				n += r.Trials
				m.attempted += int64(r.Trials)
				if kind.name == "table1" {
					table1Escapes += r.Undetected
					if r.FalsePositives > 0 {
						m.fail("table1 cell %s: %d false positives", r.String(), r.FalsePositives)
					}
					continue
				}
				if round == 0 {
					rollbacks += int(r.Retries)
				}
				if bad := r.Undetected + r.FalseNegatives + r.FalsePositives + r.Tainted + (r.Detected - r.Recovered); bad > 0 {
					m.failN(bad, "epoch cell %s: %d undetected, %d false negatives, %d false positives, %d tainted, %d of %d unrecovered",
						r.String(), r.Undetected, r.FalseNegatives, r.FalsePositives, r.Tainted, r.Detected-r.Recovered, r.Detected)
				}
			}
			phase[kind.name] += dt
			trials[kind.name] += n
			perTrial.add(kind.name, dt.Seconds()/float64(n))
			scaled.add(kind.name, dt.Seconds()/float64(n)*clk.next())
		}

		dt, err := w.kernelPhase(ctx, e.opts.seed, round, tr, root.Context(), kt)
		root.End()
		if err != nil {
			return nil, err
		}
		phase["kernel"] += dt
		trials["kernel"] += len(w.variants)
		perTrial.add("kernel", dt.Seconds()/float64(len(w.variants)))
		scaled.add("kernel", dt.Seconds()/float64(len(w.variants))*clk.next())
	}

	rate := func(kind string) float64 { return float64(trials[kind]) / phase[kind].Seconds() }
	total, totalTime := 0, time.Duration(0)
	for _, k := range []string{"table1", "epoch", "kernel"} {
		total += trials[k]
		totalTime += phase[k]
	}
	var paired []float64
	for _, c := range w.variants {
		if len(kt.ratios.vals[c.name()]) > 0 {
			paired = append(paired, kt.ratios.median(c.name()))
		}
	}
	var perKind, rawPerKind []float64
	for _, k := range []string{"table1", "epoch", "kernel"} {
		perKind = append(perKind, scaled.median(k)*1e3)
		rawPerKind = append(rawPerKind, perTrial.median(k)*1e3)
	}
	gm := m.geomeans(map[string][]float64{"overhead_gm": paired, "op_ms": perKind, "raw_op_ms": rawPerKind})
	n := float64(trials["kernel"])
	m.e2e = map[string]float64{"op_ms": gm["op_ms"]}
	m.rawOpMS = gm["raw_op_ms"]
	m.named = map[string]float64{"trials_per_s": float64(total) / totalTime.Seconds()}
	m.layer = map[string]float64{
		"overhead_gm":                gm["overhead_gm"],
		"faults.table1_trials_per_s": rate("table1"),
		"faults.epoch_trials_per_s":  rate("epoch"),
		"faults.kernel_trials_per_s": rate("kernel"),
		"recovery.rollbacks":         float64(rollbacks + kt.rollbacks),
		"codegen.run_epoch_s":        kt.calls.run.Seconds() / n,
		"codegen.verify_s":           kt.calls.verify.Seconds() / n,
		"codegen.scrub_s":            kt.calls.scrub.Seconds() / n,
	}
	m.timings = perTrial.summaries("ms", 1e3)
	kt.ratios.addTo(m.timings, "ratio.", "ratio", 1)
	kt.trialTimes.addTo(m.timings, "", "ms", 1e3)
	t1, ep := cells(e.opts.seed, 0)
	m.inputs = map[string]any{
		"workers":                 w.workers,
		"table1_cells_round0":     t1,
		"epoch_cells_round0":      ep,
		"kernel_params":           paramsOf(w.variants),
		"kernel_epochs":           kernelEpochs,
		"kernel_policy":           map[string]int{"max_retries": kernelPolicy.MaxRetries, "max_restarts": kernelPolicy.MaxRestarts},
		"table1_escapes":          table1Escapes,
		"kernel_escapes_reported": kt.escapes,
	}
	return m, nil
}

// kernelTally accumulates the kernel trials of a measurement; the phase's
// workers update it under mu.
type kernelTally struct {
	mu         sync.Mutex
	m          *measurement
	trialTimes *series // "kernel_trial": seconds per supervised trial
	ratios     *series // per variant: trial ÷ the clean run just before it
	calls      epochCalls
	rollbacks  int // in round 0, so the count is exact per seed
	escapes    int
}

// kernelPhase runs one injected trial of every protected variant, each
// after a clean run of the same variant, on up to w.workers goroutines. It
// returns the phase's wall time charged to the trials: the clean runs'
// share of it is taken out.
func (w *campaignWorkload) kernelPhase(ctx context.Context, seed int64, round int, tr *tracer, parent telemetry.SpanContext, kt *kernelTally) (time.Duration, error) {
	var inTrials, inClean time.Duration
	var firstErr error
	jobs := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < w.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				c := w.variants[j]
				trialSeed := seed*1_000_003 + int64(round*len(w.variants)+j)
				clean, cerr := w.cleanRun(c, seed, tr, parent)
				sp := tr.start(parent, "faults", "faults.RunKernelTrial", telemetry.String("kernel", c.name()))
				var calls epochCalls
				res, mach, dt, err := w.trial(ctx, c, seed, true, trialSeed, &calls, tr, sp.Context())
				sp.End()

				kt.mu.Lock()
				kt.m.attempted += 2
				switch {
				case err != nil:
					if firstErr == nil {
						firstErr = err
					}
				case cerr != nil:
					kt.m.fail("%s clean run: %v", c.name(), cerr)
				default:
					kt.trialTimes.add("kernel_trial", dt.Seconds())
					kt.ratios.add(c.name(), dt.Seconds()/clean.Seconds())
					inTrials += dt
					inClean += clean
				}
				if err == nil {
					kt.calls.run += calls.run
					kt.calls.verify += calls.verify
					kt.calls.scrub += calls.scrub
					if round == 0 {
						kt.rollbacks += res.Outcome.Retries
					}
					if escaped, msg := w.judge(c, res, mach); msg != "" {
						kt.m.fail("%s trial seed %d: %s", c.name(), trialSeed, msg)
					} else if escaped {
						kt.escapes++
					}
				}
				kt.mu.Unlock()
			}
		}()
	}
	for j := range w.variants {
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	dt := time.Since(t0)
	if inTrials+inClean > 0 {
		dt = time.Duration(float64(dt) * float64(inTrials) / float64(inTrials+inClean))
	}
	return dt, nil
}

// trial runs one supervised kernel trial on a fresh machine, adding the
// backend's call times to calls and recording them as spans under parent.
// It returns the trial's duration, machine set-up excluded.
func (w *campaignWorkload) trial(ctx context.Context, c *compiled, seed int64, inject bool, trialSeed int64, calls *epochCalls, tr *tracer, parent telemetry.SpanContext) (faults.KernelTrialResult, *codegen.Machine, time.Duration, error) {
	mach, err := c.machine(seed)
	if err != nil {
		return faults.KernelTrialResult{}, nil, 0, err
	}
	be, err := faults.NewCodegenKernelBackend(mach, codegen.FnUnit(c.prog, c.kernel.Anchored, c.kernel.Fn), kernelEpochs)
	if err != nil {
		return faults.KernelTrialResult{}, nil, 0, err
	}
	t0 := time.Now()
	res, err := faults.RunKernelTrial(ctx, &timedBackend{CodegenKernelBackend: be, tr: tr, calls: calls, parent: parent},
		faults.KernelTrialConfig{Inject: inject, Seed: trialSeed, Targets: w.targets[c.b.Name], Policy: kernelPolicy})
	return res, mach, time.Since(t0), err
}

// cleanRun times one plain, unsupervised run of the variant: the baseline
// its fault trial's cost is compared with. It must not detect anything.
func (w *campaignWorkload) cleanRun(c *compiled, seed int64, tr *tracer, parent telemetry.SpanContext) (time.Duration, error) {
	mach, err := c.machine(seed)
	if err != nil {
		return 0, err
	}
	d := tr.call(parent, "codegen", "gennative."+c.name(), func() { err = c.kernel.Fn(mach, 0, 1) })
	return d, err
}

// judge checks one injected kernel trial. A detected fault must be
// recovered to Original's exact outputs; an undetected one is an escape,
// reported but not failed: no gate of the repository expects zero escapes
// on kernel trials.
func (w *campaignWorkload) judge(c *compiled, res faults.KernelTrialResult, mach *codegen.Machine) (escaped bool, failure string) {
	switch {
	case res.Err != "":
		return false, "trial error: " + res.Err
	case res.Outcome.Tainted:
		return false, "degraded to tainted"
	case res.Outcome.Detected && !res.Outcome.Recovered:
		return false, "detected but not recovered"
	}
	got, err := floatOutputs(c.b, mach)
	if err != nil {
		return false, err.Error()
	}
	diff := sameFloats(w.want[c.b.Name], got)
	if res.Outcome.Detected && diff != "" {
		return false, "recovered output differs from Original: " + diff
	}
	return !res.Outcome.Detected && diff != "", ""
}

func (w *campaignWorkload) close() error { return nil }
