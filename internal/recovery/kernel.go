package recovery

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"defuse/internal/checksum"
	"defuse/internal/lang"
	"defuse/internal/memsim"
	"defuse/telemetry"
)

// This file is the epoch contract of an instrumented kernel, shared by the
// interpreter (interp.EpochPlan) and the native backend (codegen.EpochRun):
// what a checkpoint holds, how a boundary verifies, how the state is encoded
// into a durable checkpoint record, and how a run is fingerprinted. Because
// both engines go through the same code, a WAL written by one is a valid
// resume point for the other when program, parameters, checksum operator
// and epoch count agree.

// Kernel is one instrumented kernel sliced into epochs over the iteration
// blocks of its outermost loop, with its data initialized.
type Kernel interface {
	// Epochs returns the planned epoch count.
	Epochs() int
	// RunEpoch executes epoch k. Any epoch may be re-executed after the
	// state is restored to that epoch's entry checkpoint.
	RunEpoch(k int) error
	// Mem is the simulated memory the kernel runs on.
	Mem() *memsim.Memory
	// Pair is the live checksum pair with its shadow copies.
	Pair() *checksum.Pair
	// LoopBounds is the outermost loop's bound cache.
	LoopBounds() *LoopBounds
}

// LoopBounds caches the outermost loop's bounds. Epoch 0 evaluates them
// (they may depend on scalars the prologue computes) and later epochs
// slice the iteration range with them.
type LoopBounds struct {
	Lo, Hi int64
	Set    bool
}

// KernelSnap checkpoints everything an epoch of a kernel mutates: the
// memory as a digest-sealed snapshot, the checksum accumulators with their
// shadows, and the loop-bound cache (so a full restart evaluates the bounds
// again in epoch 0).
type KernelSnap struct {
	mem    memsim.Snapshot
	pair   checksum.Pair
	bounds LoopBounds
}

// CheckpointKernel captures k's state at an epoch boundary.
func CheckpointKernel(k Kernel) KernelSnap {
	return KernelSnap{mem: k.Mem().Snapshot(), pair: *k.Pair(), bounds: *k.LoopBounds()}
}

// RestoreKernel reinstates a checkpoint, refusing one whose memory digest no
// longer matches.
func RestoreKernel(k Kernel, s KernelSnap) error {
	if err := k.Mem().Restore(s.mem); err != nil {
		return err
	}
	*k.Pair() = s.pair
	*k.LoopBounds() = s.bounds
	return nil
}

// KernelObs carries a kernel's telemetry hooks into its supervised runs.
type KernelObs struct {
	Trace   telemetry.Sink
	Metrics *telemetry.Registry
	Tracer  *telemetry.Tracer
}

// EmitVerify streams the outcome of a checksum verification: verify.ok on a
// match, verify.mismatch plus a detection event (with the mismatching pair
// and both values) on a caught memory error.
func (o KernelObs) EmitVerify(pair *checksum.Pair, err error) {
	if o.Trace == nil && o.Metrics == nil {
		return
	}
	if err == nil {
		telemetry.Emit(o.Trace, telemetry.EvVerifyOK, map[string]any{
			"def": pair.Def, "use": pair.Use,
			"e_def": pair.EDef, "e_use": pair.EUse,
		})
		o.Metrics.Counter("defuse_verifications_total",
			telemetry.Label{Key: "result", Value: "ok"}).Inc()
		return
	}
	fields := map[string]any{"error": err.Error()}
	var mm *checksum.MismatchError
	if errors.As(err, &mm) {
		fields["which"] = mm.Which
		fields["expected"] = mm.Expected
		fields["observed"] = mm.Observed
	}
	telemetry.Emit(o.Trace, telemetry.EvVerifyMismatch, fields)
	telemetry.Emit(o.Trace, telemetry.EvDetection, fields)
	o.Metrics.Counter("defuse_verifications_total",
		telemetry.Label{Key: "result", Value: "mismatch"}).Inc()
	o.Metrics.Counter("defuse_detections_total").Inc()
}

// kernelConfig is the supervised run of k that verifies the def/use
// checksums at every epoch boundary.
func kernelConfig(k Kernel, pol Policy, obs KernelObs, span telemetry.SpanContext) Config {
	return Config{
		Epochs: k.Epochs(),
		Run:    k.RunEpoch,
		Verify: func(int) error {
			// Scrub first: a diverged accumulator copy means the def/use
			// comparison below cannot be trusted, and the supervisor must
			// treat the failure as a detector fault, not a data fault.
			if err := k.Pair().Scrub(); err != nil {
				return err
			}
			err := k.Pair().Verify()
			obs.EmitVerify(k.Pair(), err)
			return err
		},
		Checkpoint: func() any { return CheckpointKernel(k) },
		Restore:    func(s any) error { return RestoreKernel(k, s.(KernelSnap)) },
		Policy:     pol,
		Trace:      obs.Trace,
		Metrics:    obs.Metrics,
		Tracer:     obs.Tracer,
		Span:       span,
	}
}

// SuperviseKernel runs k under the checkpoint/rollback supervisor, verifying
// the def/use checksums at every epoch boundary. The verification is sound
// when the instrumentation is epoch-balanced — every value defined in an
// iteration block has its checksum contributions completed by the block's
// end, which is the paper's post-dominator condition applied per block.
func SuperviseKernel(ctx context.Context, k Kernel, pol Policy, obs KernelObs) (Outcome, error) {
	run := obs.Tracer.Start(telemetry.SpanContext{}, "run", telemetry.Int("epochs", k.Epochs()))
	out, err := Supervise(ctx, kernelConfig(k, pol, obs, run.Context()))
	run.End(telemetry.Bool("detected", out.Detected), telemetry.Bool("tainted", out.Tainted))
	return out, err
}

// SuperviseKernelDurable is SuperviseKernel with durable checkpoints: every
// verified epoch is sealed into the write-ahead log at walPath under
// fingerprint, and a fresh process pointed at the same log resumes from the
// newest valid record instead of restarting from scratch. k must be in its
// initialized (epoch-0 entry) state; if the log holds a usable checkpoint,
// that state is replaced by the resumed one before any epoch runs.
func SuperviseKernelDurable(ctx context.Context, k Kernel, pol Policy, obs KernelObs, walPath string, fingerprint uint64) (DurableOutcome, error) {
	run := obs.Tracer.Start(telemetry.SpanContext{}, "run",
		telemetry.Int("epochs", k.Epochs()), telemetry.Bool("durable", true))
	d := &DurableSupervisor{
		Config:      kernelConfig(k, pol, obs, run.Context()),
		Path:        walPath,
		Fingerprint: fingerprint,
		EncodeState: func() ([]byte, error) { return EncodeKernel(k) },
		DecodeState: func(b []byte) error { return DecodeKernel(k, b) },
	}
	out, err := d.Run(ctx)
	run.End(telemetry.Bool("detected", out.Detected), telemetry.Bool("resumed", out.Resumed))
	return out, err
}

// kernelStateHeader is the fixed prefix of an encoded kernel state: checksum
// kind, four accumulators, four shadow words, the cached loop bounds and
// their set flag — twelve little-endian uint64 words, followed by the
// encoded memory snapshot (which carries its own digest).
const kernelStateHeader = 12 * 8

// EncodeKernel renders k's state at an epoch boundary.
func EncodeKernel(k Kernel) ([]byte, error) {
	snap := k.Mem().Snapshot()
	mem, err := snap.Encode()
	if err != nil {
		return nil, err
	}
	b := make([]byte, kernelStateHeader, kernelStateHeader+len(mem))
	pair, lb := k.Pair(), k.LoopBounds()
	sh := pair.Shadows()
	set := uint64(0)
	if lb.Set {
		set = 1
	}
	for i, w := range [...]uint64{
		uint64(pair.Kind()),
		pair.Def, pair.Use, pair.EDef, pair.EUse,
		sh[0], sh[1], sh[2], sh[3],
		uint64(lb.Lo), uint64(lb.Hi), set,
	} {
		binary.LittleEndian.PutUint64(b[i*8:], w)
	}
	return append(b, mem...), nil
}

// DecodeKernel installs previously encoded state into k. The memory
// snapshot's integrity digest is re-verified by DecodeSnapshot and again by
// Restore; a checksum-kind mismatch means the record belongs to a different
// configuration and is refused (the fingerprint should already have caught
// it — the check here keeps decoding safe on its own).
func DecodeKernel(k Kernel, b []byte) error {
	if len(b) < kernelStateHeader {
		return fmt.Errorf("recovery: durable kernel state of %d bytes: %w", len(b), memsim.ErrCheckpointCorrupt)
	}
	w := func(i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }
	pair := k.Pair()
	if kind := w(0); kind != uint64(pair.Kind()) {
		return fmt.Errorf("recovery: durable state for checksum kind %d, kernel uses %d: %w",
			kind, pair.Kind(), memsim.ErrCheckpointCorrupt)
	}
	snap, err := memsim.DecodeSnapshot(b[kernelStateHeader:])
	if err != nil {
		return err
	}
	if err := k.Mem().Restore(snap); err != nil {
		return err
	}
	pair.SetState(w(1), w(2), w(3), w(4), [4]uint64{w(5), w(6), w(7), w(8)})
	*k.LoopBounds() = LoopBounds{Lo: int64(w(9)), Hi: int64(w(10)), Set: w(11) != 0}
	return nil
}

// KernelFingerprint identifies a kernel run's configuration: the epoch
// count, the checksum operator, the program text and the concrete
// parameters in sorted order. Two runs with equal fingerprints execute the
// same work over the same layout, so a durable checkpoint from one is a
// valid resume point for the other; anything else must not be resumed.
func KernelFingerprint(k Kernel, prog *lang.Program, params map[string]int64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "epochs=%d kind=%d\n", k.Epochs(), k.Pair().Kind())
	h.Write([]byte(lang.Print(prog)))
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d\n", name, params[name])
	}
	return h.Sum64()
}
