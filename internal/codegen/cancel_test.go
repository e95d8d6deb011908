package codegen_test

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"defuse/internal/bench"
	"defuse/internal/codegen"
	"defuse/internal/faults"
	"defuse/internal/interp"
	"defuse/internal/lang"
	"defuse/internal/recovery"
	"defuse/internal/wal"
)

// Context cancellation mid-epoch, for both backends. A cancelled epoch must
// behave exactly like a crashed one: the tracker and memory roll back to the
// epoch's entry checkpoint and the epoch re-executes cleanly, and under the
// durable supervisor the cancelled epoch is never sealed into the WAL — a
// resume starts from the last boundary that actually verified.

// cancelScale is larger than diffScale so every epoch spans comfortably
// more statements/ticks than the backends' 256-step cancellation poll.
const cancelScale = 0.01

const cancelEpochs = 4

// cancelEpoch is the interior epoch the tests cancel inside.
const cancelEpoch = 2

// balancedSource is a hand-instrumented, epoch-balanced kernel: every outer
// iteration folds each value into the def and use sides symmetrically, so
// the def/use identity holds at EVERY iteration boundary, not just the
// program's post-dominator. That is the soundness condition of boundary
// verification, which the durable supervisor performs — the Table 2 kernels
// are only post-dominator-balanced and cannot seal interior epochs.
const balancedSource = `
program balanced(n)
float A[n], B[n];
for i = 0 to n - 1 {
  A[i] = B[i] + 1.5;
  add_to_chksm(def_cs, A[i], 1);
  add_to_chksm(e_def_cs, A[i], 1);
  B[i] = A[i] * 2.0;
  add_to_chksm(use_cs, A[i], 1);
  add_to_chksm(e_use_cs, A[i], 1);
}
`

// cancelBackend extends the faults backend surface with context arming and
// step-hook access, the SetContext path under test.
type cancelBackend interface {
	faults.KernelBackend
	SetContext(ctx context.Context)
	SetStepHook(h func(step uint64))
}

type interpCancel struct{ *faults.InterpKernelBackend }

func (b interpCancel) SetContext(ctx context.Context)  { b.M.SetContext(ctx) }
func (b interpCancel) SetStepHook(h func(step uint64)) { b.M.SetStepHook(h) }

type codegenCancel struct{ *faults.CodegenKernelBackend }

func (b codegenCancel) SetContext(ctx context.Context)  { b.M.SetContext(ctx) }
func (b codegenCancel) SetStepHook(h func(step uint64)) { b.M.SetStepHook(h) }

// buildBackend constructs an initialized backend of the requested kind.
func buildBackend(t *testing.T, kind string, prog *lang.Program, params map[string]int64, init func(bench.DataHost)) cancelBackend {
	t.Helper()
	switch kind {
	case "interp":
		m, err := interp.New(prog, params)
		if err != nil {
			t.Fatal(err)
		}
		init(m)
		be, err := faults.NewInterpKernelBackend(m, cancelEpochs)
		if err != nil {
			t.Fatal(err)
		}
		return interpCancel{be}
	case "codegen":
		m, err := codegen.MachineFor(prog, params)
		if err != nil {
			t.Fatal(err)
		}
		unit, err := codegen.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		init(m)
		be, err := faults.NewCodegenKernelBackend(m, unit, cancelEpochs)
		if err != nil {
			t.Fatal(err)
		}
		return codegenCancel{be}
	}
	t.Fatalf("unknown backend %q", kind)
	return nil
}

// jacobiBuilder returns a constructor for the jacobi1d Resilient kernel —
// a real instrumented benchmark for the in-memory rollback test.
func jacobiBuilder(t *testing.T) func(kind string) cancelBackend {
	t.Helper()
	for _, b := range bench.Suite() {
		if b.Name != "jacobi1d" {
			continue
		}
		prog, err := b.BuildVariant(bench.Resilient)
		if err != nil {
			t.Fatal(err)
		}
		params := b.Params(cancelScale)
		return func(kind string) cancelBackend {
			return buildBackend(t, kind, prog, params, func(h bench.DataHost) {
				b.Init(h, params, rand.New(rand.NewSource(7)))
			})
		}
	}
	t.Fatal("jacobi1d not in suite")
	return nil
}

// balancedBuilder returns a constructor for the epoch-balanced kernel used
// by the durable WAL test.
func balancedBuilder(t *testing.T) func(kind string) cancelBackend {
	t.Helper()
	prog, err := lang.Parse(balancedSource)
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"n": 4000}
	return func(kind string) cancelBackend {
		return buildBackend(t, kind, prog, params, func(h bench.DataHost) {
			rng := rand.New(rand.NewSource(7))
			if err := h.FillFloat("B", func(int64) float64 { return rng.Float64()*4 - 2 }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// epochSteps runs a clean reference and returns the cumulative step counter
// at each epoch's exit plus the final memory words.
func epochSteps(t *testing.T, be cancelBackend) ([]uint64, []uint64) {
	t.Helper()
	var last uint64
	be.SetStepHook(func(step uint64) { last = step })
	var exits []uint64
	for k := 0; k < cancelEpochs; k++ {
		if err := be.RunEpoch(k); err != nil {
			t.Fatalf("reference epoch %d: %v", k, err)
		}
		exits = append(exits, last)
	}
	be.SetStepHook(nil)
	return exits, be.Mem().Words()
}

// cancelTarget picks a step count halfway into the cancel epoch — far from
// both boundaries and past at least one cancellation poll.
func cancelTarget(t *testing.T, exits []uint64) uint64 {
	t.Helper()
	span := exits[cancelEpoch] - exits[cancelEpoch-1]
	if span < 600 {
		t.Fatalf("epoch %d spans only %d steps; cancellation poll untestable", cancelEpoch, span)
	}
	return exits[cancelEpoch-1] + span/2
}

// armCancel installs a step hook that cancels the context at the target
// step and arms the machine with it.
func armCancel(be cancelBackend, target uint64) context.CancelFunc {
	ctx, cancel := context.WithCancel(context.Background())
	be.SetStepHook(func(step uint64) {
		if step >= target {
			cancel()
		}
	})
	be.SetContext(ctx)
	return cancel
}

// diffWords asserts two memories are bit-identical.
func diffWords(t *testing.T, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("memory size %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("word %d = %#x, reference %#x", i, got[i], want[i])
		}
	}
}

// TestCancelMidEpochRollback cancels a context partway through an interior
// epoch of a real instrumented kernel and asserts the cancelled epoch's
// entry checkpoint is still a valid restore point: after rollback the epoch
// re-executes cleanly and the run finishes with the exact reference state
// and verified checksums, on both backends.
func TestCancelMidEpochRollback(t *testing.T) {
	build := jacobiBuilder(t)
	for _, kind := range []string{"interp", "codegen"} {
		t.Run(kind, func(t *testing.T) {
			exits, wantWords := epochSteps(t, build(kind))
			target := cancelTarget(t, exits)

			be := build(kind)
			cancel := armCancel(be, target)
			defer cancel()
			for k := 0; k < cancelEpochs; k++ {
				if k != cancelEpoch {
					if err := be.RunEpoch(k); err != nil {
						t.Fatalf("epoch %d: %v", k, err)
					}
					continue
				}
				snap := recovery.CheckpointKernel(be)
				err := be.RunEpoch(k)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled epoch: got %v, want context.Canceled", err)
				}
				// Roll back and re-execute with a live context: the partial
				// epoch must leave no trace in memory or the tracker.
				be.SetStepHook(nil)
				be.SetContext(context.Background())
				if err := recovery.RestoreKernel(be, snap); err != nil {
					t.Fatalf("restore after cancel: %v", err)
				}
				if err := be.RunEpoch(k); err != nil {
					t.Fatalf("re-executed epoch %d: %v", k, err)
				}
			}
			if err := be.Scrub(); err != nil {
				t.Fatalf("scrub after rollback run: %v", err)
			}
			if err := be.Verify(); err != nil {
				t.Fatalf("verify after rollback run: %v", err)
			}
			diffWords(t, be.Mem().Words(), wantWords)
		})
	}
}

// TestCancelDurableWALUnsealed runs the durable supervisor over an
// epoch-balanced kernel, cancels it mid-epoch, and asserts the WAL holds
// seals only for boundaries that verified — then resumes from that WAL to a
// bit-identical final state, on both backends.
func TestCancelDurableWALUnsealed(t *testing.T) {
	build := balancedBuilder(t)
	pol := recovery.Policy{MaxRetries: 1, MaxRestarts: 1}

	for _, kind := range []string{"interp", "codegen"} {
		t.Run(kind, func(t *testing.T) {
			exits, wantWords := epochSteps(t, build(kind))
			target := cancelTarget(t, exits)

			walPath := filepath.Join(t.TempDir(), "kernel.wal")
			be := build(kind)
			cancel := armCancel(be, target)
			defer cancel()
			out, err := superviseDurable(t, be, pol, walPath)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled durable run: got err %v, want context.Canceled", err)
			}
			if out.Seals != cancelEpoch {
				t.Fatalf("sealed %d epochs, want %d (cancelled epoch must stay unsealed)", out.Seals, cancelEpoch)
			}

			// The WAL's newest record resumes from exactly the cancelled
			// epoch: earlier boundaries sealed, the cancelled one absent.
			scan, err := wal.Recover(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(scan.Records) != cancelEpoch {
				t.Fatalf("WAL holds %d records, want %d", len(scan.Records), cancelEpoch)
			}
			newest := scan.Records[len(scan.Records)-1]
			if got := binary.LittleEndian.Uint64(newest.Payload[8:]); got != uint64(cancelEpoch) {
				t.Fatalf("newest record resumes at epoch %d, want %d", got, cancelEpoch)
			}

			// Resume on a fresh machine: picks up after the last sealed
			// boundary and completes to the reference state.
			be2 := build(kind)
			out2, err := superviseDurable(t, be2, pol, walPath)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !out2.Resumed || out2.ResumeEpoch != cancelEpoch {
				t.Fatalf("resume: Resumed=%v ResumeEpoch=%d, want true/%d", out2.Resumed, out2.ResumeEpoch, cancelEpoch)
			}
			if out2.Tainted || out2.Detected {
				t.Fatalf("resumed run not clean: %+v", out2.Outcome)
			}
			diffWords(t, be2.Mem().Words(), wantWords)
		})
	}
}

// superviseDurable dispatches to the backend's durable supervisor; the
// machine's own armed context is respected via the supervisor's ctx too.
func superviseDurable(t *testing.T, be cancelBackend, pol recovery.Policy, path string) (recovery.DurableOutcome, error) {
	t.Helper()
	ctx := context.Background()
	switch v := be.(type) {
	case interpCancel:
		return v.P.SuperviseDurable(ctx, pol, path)
	case codegenCancel:
		return v.P.SuperviseDurable(ctx, pol, path)
	}
	t.Fatal("unknown backend")
	return recovery.DurableOutcome{}, nil
}

// TestCrossBackendDurableResume checks that the two backends' WALs are
// interchangeable: one backend's durable run is cancelled mid-epoch, the
// other backend resumes from its WAL, and the finished memory equals an
// uninterrupted reference — in both directions.
func TestCrossBackendDurableResume(t *testing.T) {
	build := balancedBuilder(t)
	pol := recovery.Policy{MaxRetries: 1, MaxRestarts: 1}

	for _, dir := range [][2]string{{"interp", "codegen"}, {"codegen", "interp"}} {
		writer, resumer := dir[0], dir[1]
		t.Run(writer+"-to-"+resumer, func(t *testing.T) {
			exits, wantWords := epochSteps(t, build(writer))
			target := cancelTarget(t, exits)

			walPath := filepath.Join(t.TempDir(), "kernel.wal")
			be := build(writer)
			cancel := armCancel(be, target)
			defer cancel()
			out, err := superviseDurable(t, be, pol, walPath)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled %s run: got err %v, want context.Canceled", writer, err)
			}
			if out.Seals != cancelEpoch {
				t.Fatalf("%s sealed %d epochs, want %d", writer, out.Seals, cancelEpoch)
			}

			be2 := build(resumer)
			out2, err := superviseDurable(t, be2, pol, walPath)
			if err != nil {
				t.Fatalf("%s resume: %v", resumer, err)
			}
			if !out2.Resumed || out2.ResumeEpoch != cancelEpoch {
				t.Fatalf("%s resume: Resumed=%v ResumeEpoch=%d, want true/%d", resumer, out2.Resumed, out2.ResumeEpoch, cancelEpoch)
			}
			if out2.Tainted || out2.Detected || out2.CorruptRecords != 0 {
				t.Fatalf("%s resume not clean: %+v", resumer, out2)
			}
			diffWords(t, be2.Mem().Words(), wantWords)
		})
	}
}
