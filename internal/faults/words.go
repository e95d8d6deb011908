package faults

import (
	"context"

	"defuse/internal/addrsum"
	"defuse/internal/dme"
	"defuse/internal/memsim"
	"defuse/internal/recovery"
	"defuse/rt"
)

// This file is the synthetic word-array epoch workload that epoch fault
// trials, crash trials and the service's verify jobs all run. Unlike the
// classic Table 1 experiment (one checksum over a dead array) it keeps the
// array live: every epoch loads each word, advances it through a bijective
// update, and stores it back. A detector watches the run and checks it at
// epoch boundaries — the paper's post-dominator verification placement
// applied per iteration block. A fault injected inside epoch k therefore
// either escapes or is caught at epoch k's own boundary, and under the
// checkpoint/rollback supervisor the run is steered back to the correct
// final state.
//
// The detectors are the def/use checksums (SumWords), the address-stream
// checksums (addrWords) and divergent dual execution (dmeWords). Each keeps
// its per-word loop concrete; the workload only calls it once per epoch.

// update advances one word per epoch. It is a bijective (odd-multiplier) LCG
// step, so any corruption of a word propagates to a wrong final state rather
// than being coincidentally reconverged.
func update(v uint64) uint64 { return v*2862933555777941757 + 3037000493 }

// Advance returns v after n epochs of the workload: the value a fault-free
// run ends with.
func Advance(v uint64, n int) uint64 {
	for e := 0; e < n; e++ {
		v = update(v)
	}
	return v
}

// EpochTracker is the boundary half of the def/use detector: the epoch
// operations *rt.Tracker and *rt.ShardedTracker share.
type EpochTracker interface {
	BeginEpoch() rt.EpochState
	EndEpoch() (rt.EpochState, error)
	Rollback(rt.EpochState) error
}

// Strike is a one-shot fault. Hit runs once, just before word Word of
// epoch Epoch is accessed, and returns the effective load and store indices
// of that access (both Word for a fault that leaves addressing alone). A
// transient fault does not recur when a rolled-back epoch re-executes. The
// zero Strike, with no Hit, never fires.
type Strike struct {
	Epoch, Word int
	Hit         func(k, i int) (load, store int)
}

// WordArray drives the workload's epochs: it owns the epoch count and the
// strike; a detector runs the epochs.
type WordArray struct {
	Epochs int
	Strike Strike
	struck bool
	// endOnly verifies only the final boundary (the paper's program-end
	// placement), and unchecked restores checkpoints without their
	// integrity checks (the unhardened baseline); only campaign cells
	// set them.
	endOnly, unchecked bool
}

// target returns the word the strike hits in epoch k, or -1 when it does
// not fire in that epoch.
func (w *WordArray) target(k int) int {
	if w.struck || w.Strike.Hit == nil || k != w.Strike.Epoch {
		return -1
	}
	return w.Strike.Word
}

// strike fires the strike at word i of epoch k.
func (w *WordArray) strike(k, i int) (load, store int) {
	w.struck = true
	return w.Strike.Hit(k, i)
}

// WordDetector is one detector watching the workload. Only this package
// implements it.
type WordDetector interface {
	// runEpoch executes epoch k's per-word loop.
	runEpoch(w *WordArray, k int)
	// check verifies the boundary closing epoch k.
	check(w *WordArray, k int) error
	checkpoint() any
	restore(snap any, unchecked bool) error
	// intact reports whether the protected words equal want.
	intact(want []uint64) bool
}

// Config returns the supervised run of the workload under d. The caller adds
// the policy and telemetry, and may wrap the checkpoint.
func (w *WordArray) Config(ctx context.Context, d WordDetector) recovery.Config {
	return recovery.Config{
		Epochs: w.Epochs,
		Run: func(k int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			d.runEpoch(w, k)
			return nil
		},
		Verify: func(k int) error {
			if w.endOnly && k != w.Epochs-1 {
				return nil
			}
			return d.check(w, k)
		},
		Checkpoint: d.checkpoint,
		Restore:    func(snap any) error { return d.restore(snap, w.unchecked) },
	}
}

// wordSnap checkpoints everything an epoch of the word array mutates: the
// memory, the tracker's sealed epoch state, the shadow use counters, and
// for the address detector its sealed streams. The strike is deliberately
// outside it.
type wordSnap struct {
	mem      memsim.Snapshot
	state    rt.EpochState
	addr     addrsum.EpochState
	counters []rt.Counter
}

// SumWords watches the workload with the paper's def/use checksums: every
// access is a use and a def, and every verified boundary finalizes all
// words so the checksums are quiescent, verifies, and registers the words
// again for the next epoch.
type SumWords struct {
	mem      *memsim.Memory
	fold     *rt.Tracker
	counters []rt.Counter
	bound    EpochTracker
	pre      func(k int) error
}

// NewSumWords registers the words mem holds as defined. fold takes every def
// and use and must arrive reset; bound is the tracker that seals and checks
// epochs — fold itself, or the sharded tracker fold is a shard of. pre, if
// not nil, runs at every verified boundary after the words are finalized and
// before the checksums are verified (a detector scrub).
func NewSumWords(mem *memsim.Memory, fold *rt.Tracker, counters []rt.Counter, bound EpochTracker, pre func(k int) error) *SumWords {
	for i := range counters {
		rt.DefDyn(fold, &counters[i], uint64(0), mem.Peek(i))
	}
	return &SumWords{mem: mem, fold: fold, counters: counters, bound: bound, pre: pre}
}

func (d *SumWords) runEpoch(w *WordArray, k int) {
	mem, tr, counters, hit := d.mem, d.fold, d.counters, w.target(k)
	for i := range counters {
		load, store := i, i
		if i == hit {
			load, store = w.strike(k, i)
		}
		v := rt.Use(tr, &counters[i], mem.Load(load))
		next := update(v)
		mem.Store(store, next)
		rt.DefDyn(tr, &counters[i], v, next)
	}
}

func (d *SumWords) check(w *WordArray, k int) error {
	for i := range d.counters {
		rt.Final(d.fold, &d.counters[i], d.mem.Peek(i))
	}
	if d.pre != nil {
		if err := d.pre(k); err != nil {
			return err
		}
	}
	_, err := d.bound.EndEpoch()
	if err == nil && k != w.Epochs-1 {
		for i := range d.counters {
			rt.DefDyn(d.fold, &d.counters[i], uint64(0), d.mem.Peek(i))
		}
	}
	return err
}

func (d *SumWords) checkpoint() any {
	return wordSnap{
		mem:      d.mem.Snapshot(),
		state:    d.bound.BeginEpoch(),
		counters: append([]rt.Counter(nil), d.counters...),
	}
}

// restore rolls fold back directly when unchecked: the unhardened
// baseline runs with bound == fold.
func (d *SumWords) restore(snap any, unchecked bool) error {
	s := snap.(wordSnap)
	if unchecked {
		if err := d.mem.RestoreUnchecked(s.mem); err != nil {
			return err
		}
		if err := d.fold.RollbackUnchecked(s.state); err != nil {
			return err
		}
	} else {
		if err := d.mem.Restore(s.mem); err != nil {
			return err
		}
		if err := d.bound.Rollback(s.state); err != nil {
			return err
		}
	}
	copy(d.counters, s.counters)
	return nil
}

func (d *SumWords) intact(want []uint64) bool { return memIntact(d.mem, want) }

func memIntact(mem *memsim.Memory, want []uint64) bool {
	for i, v := range want {
		if mem.Peek(i) != v {
			return false
		}
	}
	return true
}

// addrWords watches the workload with the address-stream checksums: every
// access folds its intended and effective index, and the data values are
// never looked at, so every verdict is the address detector's alone.
type addrWords struct {
	mem *memsim.Memory
	at  *addrsum.Tracker
	pre func(k int) error
}

func (d *addrWords) runEpoch(w *WordArray, k int) {
	mem, at, hit := d.mem, d.at, w.target(k)
	for i := 0; i < mem.Size(); i++ {
		load, store := i, i
		if i == hit {
			load, store = w.strike(k, i)
		}
		v := mem.Load(load)
		at.Load(i, load)
		mem.Store(store, update(v))
		at.Store(i, store)
	}
}

// check needs no finalize: the address streams are quiescent at any
// boundary, every fold being complete when its access is.
func (d *addrWords) check(w *WordArray, k int) error {
	if d.pre != nil {
		if err := d.pre(k); err != nil {
			return err
		}
	}
	_, err := d.at.EndEpoch()
	return err
}

func (d *addrWords) checkpoint() any {
	return wordSnap{mem: d.mem.Snapshot(), addr: d.at.BeginEpoch()}
}

func (d *addrWords) restore(snap any, unchecked bool) error {
	s := snap.(wordSnap)
	if unchecked {
		if err := d.mem.RestoreUnchecked(s.mem); err != nil {
			return err
		}
		d.at.RollbackUnchecked(s.addr)
		return nil
	}
	if err := d.mem.Restore(s.mem); err != nil {
		return err
	}
	return d.at.Rollback(s.addr)
}

func (d *addrWords) intact(want []uint64) bool { return memIntact(d.mem, want) }

// dmeWords runs the workload twice per epoch on two dme.Variants with
// rotated layouts and cross-checks them at every verified boundary. The
// strike hits variant A only: a transient strikes one execution, and the
// rotated layout means even a recurring physical fault would corrupt
// different logical words in each variant, so any divergence between the
// variants is evidence of it.
type dmeWords struct {
	a, b *dme.Variant
}

// dmeSnap checkpoints both variants, so a rollback restores the pair
// together and it re-enters the epoch synchronized.
type dmeSnap struct {
	a, b dme.Snapshot
}

// newDMEWords loads init into both variants. A keeps the identity layout;
// B's rotation places every logical word at a different physical location
// (any nonzero shift mod words).
func newDMEWords(init []uint64) *dmeWords {
	words := len(init)
	shiftB := words / 2
	if shiftB == 0 {
		shiftB = 1
	}
	d := &dmeWords{a: dme.NewVariant(words, 0), b: dme.NewVariant(words, shiftB)}
	for i, v := range init {
		d.a.Poke(i, v)
		d.b.Poke(i, v)
	}
	return d
}

func (d *dmeWords) runEpoch(w *WordArray, k int) {
	a, b, hit := d.a, d.b, w.target(k)
	for i := 0; i < a.Words(); i++ {
		load, store := i, i
		if i == hit {
			load, store = w.strike(k, i)
		}
		a.Store(store, update(a.Load(load)))
	}
	// Variant B runs the same epoch clean, after A — sequential dual
	// execution, as a single-core deployment would schedule it.
	for i := 0; i < b.Words(); i++ {
		b.Store(i, update(b.Load(i)))
	}
}

func (d *dmeWords) check(*WordArray, int) error { return dme.CrossCheck(d.a, d.b) }

func (d *dmeWords) checkpoint() any { return dmeSnap{a: d.a.Snapshot(), b: d.b.Snapshot()} }

func (d *dmeWords) restore(snap any, unchecked bool) error {
	s := snap.(dmeSnap)
	if unchecked {
		if err := d.a.RestoreUnchecked(s.a); err != nil {
			return err
		}
		return d.b.RestoreUnchecked(s.b)
	}
	if err := d.a.Restore(s.a); err != nil {
		return err
	}
	return d.b.Restore(s.b)
}

func (d *dmeWords) intact(want []uint64) bool {
	for i, v := range want {
		if d.a.Peek(i) != v || d.b.Peek(i) != v {
			return false
		}
	}
	return true
}
