package faults

import (
	"context"
	"math/bits"

	"defuse/internal/addrsum"
	"defuse/internal/checksum"
	"defuse/internal/memsim"
	"defuse/internal/recovery"
	"defuse/rt"
	"defuse/telemetry"
)

// This file runs one epoch-structured injection trial: the word-array
// workload (words.go) under the cell's detector, with one fault struck
// inside a random epoch. With EndOnlyVerify the trial verifies only at the
// final boundary, measuring the latency the epoch scheme removes, and with
// Recover it runs under the checkpoint/rollback supervisor and reports
// whether the corrupted run was steered back to the correct final state.
//
// With a non-data Target the same fault model is aimed at the detector
// itself (see the Target constants in coverage.go), and Hardened selects
// whether the trial runs the detector's self-checks — boundary scrubs and
// digest-verified checkpoint restores — or the unchecked baseline.

// trialDraws is one epoch trial's random coordinates.
type trialDraws struct {
	init              []uint64
	injEpoch, injWord int
	flips             []BitFlip
	// Detector-target coordinates.
	accSel         checksum.Acc
	accBit, ctrBit uint
	ckPos, ckBit   int
	// addrTarget is the address fault's effective index; addrSkip reports
	// that the region is too small to model the fault.
	addrTarget int
	addrSkip   bool
}

// drawTrial draws a trial's coordinates from its seed. Every draw is
// consumed whatever the cell's backend, target and fault shape, in a fixed
// order with new draws appended last, so the same (seed, trial) races the
// same fault on every detector and older cells stay byte-stable.
func drawTrial(cfg CoverageConfig, trial int) trialDraws {
	in := NewInjector(trialSeed(cfg.Seed, trial))
	var d trialDraws
	d.init = make([]uint64, cfg.Words)
	in.Fill(d.init, cfg.Pattern)
	d.injEpoch = in.Intn(cfg.Epochs)
	d.injWord = in.Intn(cfg.Words)
	d.flips = in.PickBits(cfg.Words, cfg.BitFlips)
	d.accSel = checksum.Acc(in.Intn(4))
	d.accBit = uint(in.Intn(64))
	d.ctrBit = uint(in.Intn(64))
	d.ckPos = in.Intn(cfg.Words + 4)
	d.ckBit = in.Intn(64)
	d.addrTarget, d.addrSkip = drawAddrFault(in, cfg.AddrFault, d.injWord, cfg.Words)
	return d
}

// drawAddrFault resolves an address-fault cell's effective target index. Both
// underlying draws are consumed unconditionally and in a fixed order so every
// AddrFault value sees the same downstream random stream. The bool reports a
// skip: the region is too small to model the fault (tallied, not an error).
func drawAddrFault(in *Injector, af AddrFault, injWord, words int) (int, bool) {
	wrongIdx, wrongErr := in.WrongAddress(injWord, words)
	idxBitDraw := in.Intn(64)
	switch af {
	case AddrWrong, AddrAlias:
		if wrongErr != nil {
			return injWord, true
		}
		return wrongIdx, false
	case AddrIndexBit:
		return indexBitFlip(injWord, words, idxBitDraw)
	default: // AddrNone
		return injWord, false
	}
}

// indexBitFlip models a single bit flip in the index register: it flips one
// bit of idx, chosen from the draw, cycling positions until the result stays
// inside the region. For words >= 2 a valid bit always exists (the lowest set
// bit of idx maps downward; for idx 0, bit 0 maps to 1), so the only skip is
// the degenerate 1-word region.
func indexBitFlip(idx, words, draw int) (int, bool) {
	if words < 2 {
		return idx, true
	}
	nbits := bits.Len(uint(words - 1))
	for t := 0; t < nbits; t++ {
		b := (draw + t) % nbits
		if j := idx ^ (1 << uint(b)); j < words {
			return j, false
		}
	}
	return idx, true
}

// trialPolicy is a cell's recovery policy: detect only, or bounded retries
// and one restart under Recover. There is no backoff pause inside the
// simulation: a retry re-executes immediately so campaigns stay fast and
// deterministic in wall time.
func trialPolicy(cfg CoverageConfig) recovery.Policy {
	if !cfg.Recover {
		return recovery.Policy{}
	}
	retries := cfg.MaxRetries
	if retries <= 0 {
		retries = 2
	}
	return recovery.Policy{MaxRetries: retries, MaxRestarts: 1}
}

// runEpochTrial executes one supervised epoch trial and tallies its outcome.
// The checksum and addrsum detectors fold through the worker's reusable
// shard — its tracker is Reset on entry and its counter table recycled — so
// the campaign allocates one tracker per (worker, operator) instead of one
// per trial; the DME detector takes no shard (sh may be nil). inst carries
// the cell's pre-resolved telemetry instruments. span is the parent the
// supervisor's spans attach to (the campaign's per-trial span); pass the
// zero context when untraced.
func runEpochTrial(ctx context.Context, cfg CoverageConfig, trial int, sh *rt.Shard, inst cellInstruments, span telemetry.SpanContext) (trialTally, error) {
	dr := drawTrial(cfg, trial)
	w := &WordArray{Epochs: cfg.Epochs, endOnly: cfg.EndOnlyVerify, unchecked: !cfg.Hardened}

	var tr *rt.Tracker
	var counters []rt.Counter
	maskTried := false
	// pre runs at every verified boundary of the checksum detectors, after
	// the finalize and before the verify.
	pre := func(k int) error {
		if cfg.Target == TargetMasking && w.struck && !maskTried {
			// The adversarial second half of the masking fault:
			// compensating single-bit flips of the use and e_use
			// accumulators that cancel the data flip's imbalance, making
			// verification pass on wrong data. Only possible when the
			// accumulator bit values line up (always for XOR, about one
			// trial in four for ModAdd).
			maskTried = true
			tryMask(tr, cfg.Kind)
		}
		if !cfg.Hardened {
			return nil
		}
		if serr := tr.ScrubDetector(); serr != nil {
			telemetry.Emit(cfg.Trace, telemetry.EvScrubFail, map[string]any{
				"trial": trial, "epoch": k, "error": serr.Error(),
			})
			inst.scrubFail.Inc()
			return serr
		}
		telemetry.Emit(cfg.Trace, telemetry.EvScrubPass, map[string]any{
			"trial": trial, "epoch": k,
		})
		inst.scrubPass.Inc()
		return nil
	}
	var d WordDetector
	var flip func(word, bit int) // a data flip in the protected words
	if cfg.Backend == BackendDME {
		dd := newDMEWords(dr.init)
		d, flip = dd, dd.a.FlipBit
	} else {
		mem := memsim.New(cfg.Words)
		for i, v := range dr.init {
			mem.Poke(i, v)
		}
		flip = mem.FlipBit
		tr = sh.Tracker()
		tr.Reset()
		if cfg.Backend == BackendAddrsum {
			// The address streams fold through the shard tracker's attached
			// addrsum.Tracker (one allocation per worker, reused across
			// trials), which the tracker's scrub covers.
			at := tr.Addr()
			if at == nil {
				at = addrsum.NewTracker()
				tr.AttachAddr(at)
			}
			at.Reset()
			d = &addrWords{mem: mem, at: at, pre: pre}
		} else {
			counters = sh.Counters(cfg.Words)
			d = NewSumWords(mem, tr, counters, tr, pre)
		}
	}

	fields := func(k int) map[string]any {
		f := map[string]any{"trial": trial, "epoch": k, "scheme": "epoch"}
		if cfg.Backend != BackendChecksum {
			f["backend"] = cfg.Backend.String()
		}
		return f
	}
	w.Strike = Strike{Epoch: dr.injEpoch, Word: dr.injWord, Hit: func(k, i int) (int, int) {
		if cfg.AddrFault != AddrNone {
			// The effective addresses diverge from the intended index i
			// for exactly this access (the transient corrupted-register
			// model).
			if dr.addrSkip {
				return i, i
			}
			store := i
			if cfg.AddrFault == AddrAlias {
				// The register was corrupted before the load and reused for
				// the store: the whole read-modify-write lands on the
				// wrong (valid) word.
				store = dr.addrTarget
			}
			f := fields(k)
			f["fault"], f["intent"], f["effective"] = cfg.AddrFault.String(), i, dr.addrTarget
			telemetry.Emit(cfg.Trace, telemetry.EvFaultInjected, f)
			return dr.addrTarget, store
		}
		switch cfg.Target {
		case TargetAccumulator:
			tr.CorruptAccumulator(dr.accSel, dr.accBit)
		case TargetCounter:
			rt.CorruptCounter(&counters[dr.injWord], dr.ctrBit)
		default: // data, masking, checkpoint: corrupt the protected words
			for _, f := range dr.flips {
				flip(f.Word, f.Bit)
			}
		}
		if cfg.Trace != nil {
			f := fields(k)
			f["words"], f["target"] = cfg.Words, cfg.Target.String()
			switch cfg.Target {
			case TargetAccumulator:
				f["acc"], f["bit"] = dr.accSel.String(), dr.accBit
			case TargetCounter:
				f["word"], f["bit"] = dr.injWord, dr.ctrBit
			default:
				coords := make([]map[string]any, len(dr.flips))
				for fi, fl := range dr.flips {
					coords[fi] = map[string]any{"word": fl.Word, "bit": fl.Bit}
				}
				f["flips"] = coords
			}
			telemetry.Emit(cfg.Trace, telemetry.EvFaultInjected, f)
		}
		return i, i
	}}

	rc := w.Config(ctx, d)
	if cfg.Target == TargetCheckpoint {
		// The supervisor's very first Checkpoint call captures the initial
		// (whole-run) state; the fault targets the per-epoch checkpoint
		// parked for epoch injEpoch, once.
		checkpoint, sawInitial, done := rc.Checkpoint, false, false
		rc.Checkpoint = func() any {
			snap := checkpoint().(wordSnap)
			if !sawInitial {
				sawInitial = true
			} else if !done && tr.Epoch() == dr.injEpoch {
				done = true
				if dr.ckPos < cfg.Words {
					snap.mem.FlipBit(dr.ckPos, dr.ckBit)
				} else {
					flipEpochStateField(&snap.state, dr.ckPos-cfg.Words, uint(dr.ckBit))
				}
			}
			return snap
		}
	}
	rc.Policy = trialPolicy(cfg)
	rc.Trace, rc.Metrics, rc.Tracer, rc.Span = cfg.Trace, cfg.Metrics, cfg.Tracer, span
	out, err := recovery.Supervise(ctx, rc)
	if err != nil {
		return trialTally{}, err
	}

	// A skipped address fault injected nothing: the trial ran clean and
	// counts as neither detected nor undetected.
	skipped := dr.addrSkip
	tally := trialTally{
		skipped:          skipped,
		undetected:       !out.Detected && !skipped,
		detected:         out.Detected,
		tainted:          out.Tainted,
		retries:          out.Retries,
		restarts:         out.Restarts,
		rebuilds:         out.Rebuilds,
		detectorFaults:   out.DetectorFaults,
		checkpointFaults: out.CheckpointFaults,
	}
	if out.Detected {
		tally.latency = out.FirstDetection - dr.injEpoch
	}
	want := dr.init
	for i, v := range want {
		want[i] = Advance(v, cfg.Epochs)
	}
	finalOK := d.intact(want)
	tally.recovered = out.Recovered && finalOK
	// A false negative is a trial that finished with every check green and a
	// wrong final state; a false positive is recovery machinery acting on a
	// data-fault verdict when the protected data was never touched
	// (detector-only targets never touch it, and a skipped address fault
	// injects nothing).
	dataInjected := (cfg.Target == TargetData || cfg.Target == TargetMasking || cfg.Target == TargetCheckpoint) && !skipped
	tally.falseNegative = !out.Detected && !finalOK
	tally.falsePositive = !dataInjected && out.DataFaults > 0

	if !skipped {
		inst.record(tally.undetected)
	}
	if tally.detected {
		inst.latency.Observe(float64(tally.latency))
	}
	if tally.recovered {
		inst.recovered.Inc()
	}
	return tally, nil
}

// tryMask attempts the compensating accumulator corruption that hides a
// single-bit data fault: after the boundary finalize, a 1-bit data flip
// leaves use = def + d and e_use = e_def + d with d = ±2^b. Flipping bit b of
// both the use and e_use primaries subtracts d exactly when the current bit
// values have the right sense — always for XOR, and with the right bit
// polarity (about 1/4 of trials) for modular addition. It returns whether the
// mask was applied.
func tryMask(tr *rt.Tracker, kind checksum.Kind) bool {
	def, use, edef, euse := tr.Checksums()
	switch kind {
	case checksum.XOR:
		m := use ^ def
		if m != 0 && m == euse^edef && bits.OnesCount64(m) == 1 {
			b := uint(bits.TrailingZeros64(m))
			tr.CorruptAccumulator(checksum.AccUse, b)
			tr.CorruptAccumulator(checksum.AccEUse, b)
			return true
		}
	case checksum.ModAdd:
		d := use - def
		if d == 0 || d != euse-edef {
			return false
		}
		if bits.OnesCount64(d) == 1 {
			// Need to subtract 2^b: only a set bit flips downward.
			b := uint(bits.TrailingZeros64(d))
			if use&(1<<b) != 0 && euse&(1<<b) != 0 {
				tr.CorruptAccumulator(checksum.AccUse, b)
				tr.CorruptAccumulator(checksum.AccEUse, b)
				return true
			}
		} else if bits.OnesCount64(-d) == 1 {
			// Need to add 2^b: only a clear bit flips upward.
			b := uint(bits.TrailingZeros64(-d))
			if use&(1<<b) == 0 && euse&(1<<b) == 0 {
				tr.CorruptAccumulator(checksum.AccUse, b)
				tr.CorruptAccumulator(checksum.AccEUse, b)
				return true
			}
		}
	}
	return false
}

// flipEpochStateField flips one bit of a parked EpochState's accumulator
// fields without resealing its digest — the checkpoint-fault footprint on the
// tracker side. sel picks the accumulator (0..3).
func flipEpochStateField(s *rt.EpochState, sel int, bit uint) {
	mask := uint64(1) << (bit & 63)
	switch sel & 3 {
	case 0:
		s.Def ^= mask
	case 1:
		s.Use ^= mask
	case 2:
		s.EDef ^= mask
	default:
		s.EUse ^= mask
	}
}
