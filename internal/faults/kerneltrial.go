package faults

import (
	"context"

	"defuse/internal/checksum"
	"defuse/internal/codegen"
	"defuse/internal/interp"
	"defuse/internal/recovery"
	"defuse/telemetry"
)

// This file runs epoch-structured injection trials against real instrumented
// kernels instead of the synthetic rt-protected array the rest of the
// package exercises, through a backend abstraction that admits both the
// interpreter and the native codegen engine. The trial is the execution
// substrate of the codegen differential oracle: two backends fed the same
// program, data, and injector stream must produce identical verdicts,
// latencies, per-epoch state stamps, and final memory.
//
// Instrumented kernels are NOT epoch-balanced — the instrumenter proves its
// def/use identity at the program's post-dominator, not at arbitrary
// interior cuts of the outermost loop — so interior boundaries scrub the
// detector (self-check) but only the final boundary runs the full def/use
// verification. Detection latency for kernels is therefore measured to the
// final boundary, the placement the paper's Figure 4 verification uses.

// KernelBackend is an epoch-structured execution engine over one
// instrumented kernel with its data already initialized: a recovery.Kernel
// plus the checks and lookups a trial needs. Implementations must be
// deterministic: same program, same initial data, same epoch schedule, same
// state at every observation point.
type KernelBackend interface {
	recovery.Kernel
	// Backend names the engine ("interp" or "codegen").
	Backend() string
	// Scrub runs the checksum pair's shadow self-check.
	Scrub() error
	// Verify runs the full def/use verification.
	Verify() error
	// Region resolves a variable's memory region for fault targeting.
	Region(name string) (base, size int, err error)
}

// kernelChecks completes a recovery.Kernel into a KernelBackend.
type kernelChecks struct {
	recovery.Kernel
	name   string
	region func(string) (int, int, error)
}

func (b kernelChecks) Backend() string { return b.name }
func (b kernelChecks) Scrub() error    { return b.Pair().Scrub() }
func (b kernelChecks) Verify() error   { return b.Pair().Verify() }
func (b kernelChecks) Region(name string) (int, int, error) {
	return b.region(name)
}

// InterpKernelBackend adapts an interpreter machine + epoch plan.
type InterpKernelBackend struct {
	kernelChecks
	M *interp.Machine
	P *interp.EpochPlan
}

// NewInterpKernelBackend plans n epochs over an initialized machine.
func NewInterpKernelBackend(m *interp.Machine, n int) (*InterpKernelBackend, error) {
	p, err := m.PlanEpochs(n)
	if err != nil {
		return nil, err
	}
	return &InterpKernelBackend{kernelChecks{p, "interp", m.Region}, m, p}, nil
}

// CodegenKernelBackend adapts a native machine + epoch run.
type CodegenKernelBackend struct {
	kernelChecks
	M *codegen.Machine
	P *codegen.EpochRun
}

// NewCodegenKernelBackend plans n epochs of a compiled unit over an
// initialized machine.
func NewCodegenKernelBackend(m *codegen.Machine, u *codegen.Unit, n int) (*CodegenKernelBackend, error) {
	p, err := codegen.PlanEpochs(m, u, n)
	if err != nil {
		return nil, err
	}
	return &CodegenKernelBackend{kernelChecks{p, "codegen", m.Region}, m, p}, nil
}

// KernelTrialConfig parameterizes one kernel trial.
type KernelTrialConfig struct {
	// Inject enables fault injection; false runs the trial clean (the
	// differential baseline).
	Inject bool
	// Seed keys the injector's deterministic draw stream.
	Seed int64
	// Targets names the float variables eligible for injection, in draw
	// order. Empty with Inject set is an error surfaced by RunKernelTrial.
	Targets []string
	// Policy is the recovery policy (zero value: detect only, no retry).
	Policy recovery.Policy
	// Trace/Metrics/Tracer are optional observability hooks.
	Trace   telemetry.Sink
	Metrics *telemetry.Registry
	Tracer  *telemetry.Tracer
}

// KernelStamp is the per-epoch observable state fingerprint the
// differential harness compares: captured at every epoch boundary after the
// boundary's checks, before the next epoch begins.
type KernelStamp struct {
	Epoch     int
	MemDigest uint64
	Def, Use  uint64
	EDef      uint64
	EUse      uint64
}

// KernelTrialResult is everything observable about one trial.
type KernelTrialResult struct {
	Backend string
	Outcome recovery.Outcome
	// Stamps has one entry per verified epoch boundary, in order. A boundary
	// that detected (and was retried) contributes one entry per attempt.
	Stamps []KernelStamp
	// FinalWords is the complete simulated memory at trial end.
	FinalWords []uint64
	// Pair is the final accumulator state.
	Pair checksum.Pair
	// Err is the terminal error text with the backend prefix stripped, ""
	// on success — backends must agree on it.
	Err string
	// Injection coordinates actually used (meaningful when Inject).
	InjEpoch, InjWord, InjBit int
}

// stripPrefix removes the backend-identifying error prefix so the two
// backends' otherwise-identical diagnostics compare equal.
func stripPrefix(s string) string {
	for _, p := range []string{"interp: ", "codegen: "} {
		if len(s) >= len(p) && s[:len(p)] == p {
			return s[len(p):]
		}
	}
	return s
}

// RunKernelTrial executes one supervised trial of an initialized backend.
// The injector stream draws, in order: injection epoch, target variable
// slot, word offset within the target, bit. The flip lands at the injected
// epoch's entry, after its checkpoint is parked — the transient-fault model
// (re-execution from the checkpoint does not see the fault again).
func RunKernelTrial(ctx context.Context, be KernelBackend, cfg KernelTrialConfig) (KernelTrialResult, error) {
	epochs := be.Epochs()
	res := KernelTrialResult{Backend: be.Backend(), InjEpoch: -1, InjWord: -1, InjBit: -1}

	injEpoch, injWord, injBit := -1, -1, -1
	if cfg.Inject {
		in := NewInjector(cfg.Seed)
		injEpoch = in.Intn(epochs)
		slot := in.Intn(len(cfg.Targets))
		base, size, err := be.Region(cfg.Targets[slot])
		if err != nil {
			return res, err
		}
		injWord = base + in.Intn(size)
		injBit = in.Intn(64)
		res.InjEpoch, res.InjWord, res.InjBit = injEpoch, injWord, injBit
	}

	injected := false
	run := func(k int) error {
		if cfg.Inject && !injected && k == injEpoch {
			injected = true
			be.Mem().FlipBit(injWord, injBit)
			telemetry.Emit(cfg.Trace, telemetry.EvFaultInjected, map[string]any{
				"scheme": "kernel", "backend": be.Backend(),
				"epoch": k, "word": injWord, "bit": injBit,
			})
		}
		return be.RunEpoch(k)
	}

	stamp := func(k int) {
		p := be.Pair()
		sn := be.Mem().Snapshot()
		res.Stamps = append(res.Stamps, KernelStamp{
			Epoch: k, MemDigest: sn.Digest(),
			Def: p.Def, Use: p.Use, EDef: p.EDef, EUse: p.EUse,
		})
	}

	verify := func(k int) error {
		// Interior boundaries: detector self-check only — the kernel's
		// def/use identity holds at the program's post-dominator, not at
		// arbitrary interior cuts.
		if err := be.Scrub(); err != nil {
			stamp(k)
			return err
		}
		if k == epochs-1 {
			if err := be.Verify(); err != nil {
				stamp(k)
				return err
			}
		}
		stamp(k)
		return nil
	}

	out, err := recovery.Supervise(ctx, recovery.Config{
		Epochs:     epochs,
		Run:        run,
		Verify:     verify,
		Checkpoint: func() any { return recovery.CheckpointKernel(be) },
		Restore:    func(snap any) error { return recovery.RestoreKernel(be, snap.(recovery.KernelSnap)) },
		Policy:     cfg.Policy,
		Trace:      cfg.Trace,
		Metrics:    cfg.Metrics,
		Tracer:     cfg.Tracer,
	})
	res.Outcome = out
	if err != nil {
		res.Err = stripPrefix(err.Error())
	}
	res.FinalWords = be.Mem().Words()
	res.Pair = *be.Pair()
	return res, nil
}
