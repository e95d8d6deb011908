package codegen

import (
	"context"
	"fmt"

	"defuse/internal/checksum"
	"defuse/internal/memsim"
	"defuse/internal/recovery"
)

// Epoch-scoped native execution: the supervision contract of interp's
// EpochPlan — verify at every boundary, checkpoint, roll back on detection —
// with the compiled Fn as the epoch body. Both engines satisfy
// recovery.Kernel and share its checkpoint, durable state encoding and run
// fingerprint, so a WAL written by one backend is a valid resume point for
// the other when the program, parameters, and epoch count agree.

// EpochRun partitions a compiled program's outermost loop into n contiguous
// iteration blocks.
type EpochRun struct {
	m *Machine
	u *Unit
	n int
}

// PlanEpochs builds an n-epoch native run. A program with no top-level loop
// collapses to a single epoch, exactly as interp.PlanEpochs does.
func PlanEpochs(m *Machine, u *Unit, n int) (*EpochRun, error) {
	if n < 1 {
		return nil, fmt.Errorf("codegen: PlanEpochs needs n >= 1, got %d", n)
	}
	if !u.anchored {
		n = 1
	}
	return &EpochRun{m: m, u: u, n: n}, nil
}

// Epochs returns the number of epochs in the plan.
func (p *EpochRun) Epochs() int { return p.n }

// Machine returns the plan's target machine.
func (p *EpochRun) Machine() *Machine { return p.m }

// Reset clears the machine's cached loop bounds so a pooled plan can be
// reused for a fresh request. Pair with Machine.Reset.
func (p *EpochRun) Reset() { p.m.bounds = recovery.LoopBounds{} }

// RunEpoch executes epoch k natively. Epochs must be started in order the
// first time, but any epoch may be re-executed after the machine's state is
// restored to that epoch's entry checkpoint.
func (p *EpochRun) RunEpoch(k int) error { return p.u.fn(p.m, k, p.n) }

// Mem returns the machine's simulated memory.
func (p *EpochRun) Mem() *memsim.Memory { return p.m.mem }

// Pair returns the machine's checksum pair.
func (p *EpochRun) Pair() *checksum.Pair { return p.m.pair }

// LoopBounds returns the machine's outermost-loop bound cache.
func (p *EpochRun) LoopBounds() *recovery.LoopBounds { return &p.m.bounds }

// Supervise runs the plan under a checkpoint/rollback recovery supervisor,
// verifying the def/use checksums at every epoch boundary — the contract
// interp's EpochPlan.Supervise runs too (recovery.SuperviseKernel).
func (p *EpochRun) Supervise(ctx context.Context, pol recovery.Policy) (recovery.Outcome, error) {
	return recovery.SuperviseKernel(ctx, p, pol, p.m.obs())
}

// SuperviseDurable is Supervise with durable checkpoints: every verified
// epoch is sealed into the write-ahead log at walPath, and a fresh process
// pointed at the same log resumes from the newest valid record.
func (p *EpochRun) SuperviseDurable(ctx context.Context, pol recovery.Policy, walPath string) (recovery.DurableOutcome, error) {
	return recovery.SuperviseKernelDurable(ctx, p, pol, p.m.obs(), walPath, p.Fingerprint())
}

// Fingerprint identifies the run configuration with the recipe interp uses
// (recovery.KernelFingerprint).
func (p *EpochRun) Fingerprint() uint64 {
	return recovery.KernelFingerprint(p, p.u.prog, p.m.params)
}
