package interp

import (
	"context"
	"fmt"

	"defuse/internal/checksum"
	"defuse/internal/lang"
	"defuse/internal/memsim"
	"defuse/internal/recovery"
)

// This file wires epoch-scoped execution through the interpreter. The
// instrumenter places the paper's verification at a post-dominator of all
// defs and uses; an epoch plan refines that placement to iteration blocks of
// the outermost loop, so a supervisor can verify, checkpoint, and — on a
// detected corruption — roll back and re-execute one block instead of
// discarding the whole run.

// EpochPlan partitions a program's outermost top-level loop into n
// contiguous iteration blocks (epochs). Statements before the loop belong to
// epoch 0 and statements after it to the last epoch, so running epochs
// 0..n-1 in order is equivalent to Run.
type EpochPlan struct {
	m         *Machine
	pre, post []lang.Stmt
	loop      *lang.For
	n         int

	// Loop bounds are evaluated when epoch 0 executes (they may depend on
	// scalars the prologue computes).
	bounds recovery.LoopBounds
}

// PlanEpochs builds an n-epoch plan over the machine's program. The epoch
// anchor is the first top-level for loop — the instrumenter's outermost
// loop, whose iteration blocks post-dominate the defs and uses of the values
// produced within them. A program with no top-level loop collapses to a
// single epoch.
func (m *Machine) PlanEpochs(n int) (*EpochPlan, error) {
	if n < 1 {
		return nil, fmt.Errorf("interp: PlanEpochs needs n >= 1, got %d", n)
	}
	p := &EpochPlan{m: m, n: n}
	for i, s := range m.prog.Body {
		if f, ok := s.(*lang.For); ok {
			p.pre = m.prog.Body[:i]
			p.loop = f
			p.post = m.prog.Body[i+1:]
			break
		}
	}
	if p.loop == nil {
		p.pre = m.prog.Body
		p.n = 1
	}
	return p, nil
}

// Epochs returns the number of epochs in the plan.
func (p *EpochPlan) Epochs() int { return p.n }

// Reset clears the plan's cached loop bounds so a pooled machine's plan can
// be reused for a fresh request: bounds may depend on scalars the prologue
// computes, so they must be re-evaluated when epoch 0 next runs. Pair with
// Machine.Reset.
func (p *EpochPlan) Reset() { p.bounds = recovery.LoopBounds{} }

// RunEpoch executes epoch k: the prologue (k == 0), the k-th block of
// outermost-loop iterations, and the epilogue (k == n-1). Epochs must be
// started in order the first time, but any epoch may be re-executed after
// the machine's state is restored to that epoch's entry checkpoint.
func (p *EpochPlan) RunEpoch(k int) error {
	if k < 0 || k >= p.n {
		return fmt.Errorf("interp: epoch %d out of range [0,%d)", k, p.n)
	}
	max := p.m.stepBudget()
	if k == 0 {
		if err := p.m.execStmts(p.pre, max); err != nil {
			return err
		}
		if p.loop != nil {
			lo, err := p.m.evalInt(p.loop.Lo)
			if err != nil {
				return err
			}
			hi, err := p.m.evalInt(p.loop.Hi)
			if err != nil {
				return err
			}
			p.bounds = recovery.LoopBounds{Lo: lo, Hi: hi, Set: true}
		}
	}
	if p.loop != nil {
		if !p.bounds.Set {
			return fmt.Errorf("interp: epoch %d run before epoch 0 evaluated loop bounds", k)
		}
		count := p.bounds.Hi - p.bounds.Lo + 1
		if count < 0 {
			count = 0
		}
		chunk := (count + int64(p.n) - 1) / int64(p.n)
		start := p.bounds.Lo + int64(k)*chunk
		end := start + chunk - 1
		if end > p.bounds.Hi {
			end = p.bounds.Hi
		}
		for i := start; i <= end; i++ {
			p.m.iters[p.loop.Iter] = i
			if err := p.m.execStmts(p.loop.Body, max); err != nil {
				delete(p.m.iters, p.loop.Iter)
				return err
			}
		}
		delete(p.m.iters, p.loop.Iter)
	}
	if k == p.n-1 {
		return p.m.execStmts(p.post, max)
	}
	return nil
}

// Mem returns the machine's simulated memory.
func (p *EpochPlan) Mem() *memsim.Memory { return p.m.mem }

// Pair returns the machine's checksum pair.
func (p *EpochPlan) Pair() *checksum.Pair { return p.m.pair }

// LoopBounds returns the plan's outermost-loop bound cache.
func (p *EpochPlan) LoopBounds() *recovery.LoopBounds { return &p.bounds }

// Supervise runs the plan under a checkpoint/rollback recovery supervisor,
// verifying the def/use checksums at every epoch boundary (see
// recovery.SuperviseKernel for the soundness condition). The machine's
// trace sink and metrics registry, if configured, receive the supervisor's
// epoch.verify / recovery.* telemetry.
func (p *EpochPlan) Supervise(ctx context.Context, pol recovery.Policy) (recovery.Outcome, error) {
	defer p.m.publishMetrics()
	return recovery.SuperviseKernel(ctx, p, pol, p.m.obs())
}

// SuperviseDurable is Supervise with durable checkpoints: every verified
// epoch is sealed into the write-ahead log at walPath, and a fresh process
// pointed at the same log resumes from the newest valid record instead of
// restarting from scratch (see recovery.SuperviseKernelDurable).
func (p *EpochPlan) SuperviseDurable(ctx context.Context, pol recovery.Policy, walPath string) (recovery.DurableOutcome, error) {
	defer p.m.publishMetrics()
	return recovery.SuperviseKernelDurable(ctx, p, pol, p.m.obs(), walPath, p.Fingerprint())
}

// Fingerprint identifies the plan's run configuration (see
// recovery.KernelFingerprint).
func (p *EpochPlan) Fingerprint() uint64 {
	return recovery.KernelFingerprint(p, p.m.prog, p.m.params)
}
