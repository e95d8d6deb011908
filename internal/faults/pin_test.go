package faults

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"

	"defuse/internal/checksum"
)

// pinTally is the exact per-cell tally a pinned campaign must reproduce.
type pinTally struct {
	Undetected, Detected int
	LatencySum           int64
	Recovered, Skipped   int
	FN, FP               int
	Retries, Rebuilds    int64
}

// TestStreamPins pins exact per-cell tallies of seeded epoch campaigns
// across every detector backend, address-fault shape and detector target.
// The determinism tests compare a run only with itself, so a reordered or
// dropped draw passes them; these literal values do not. They change only
// when the draw schedule, the workload or a detector's verdict changes, and
// any such change must be deliberate.
func TestStreamPins(t *testing.T) {
	base := CoverageConfig{
		Kind: checksum.ModAdd, Words: 12, BitFlips: 1, Pattern: Random,
		Trials: 96, Seed: 2024, Epochs: 4, Recover: true,
	}
	// Each want lists undetected, detected, latency sum, recovered,
	// skipped, false negatives, false positives, retries and rebuilds.
	type pin struct {
		name string
		mod  func(*CoverageConfig)
		want pinTally
	}
	cell := func(be Backend, af AddrFault) func(*CoverageConfig) {
		// Verifying only at the end makes the latency sums and the
		// retry/restart counts depend on the drawn injection epoch.
		return func(c *CoverageConfig) { c.Backend, c.AddrFault, c.EndOnlyVerify = be, af, true }
	}
	target := func(tg Target, hardened bool) func(*CoverageConfig) {
		return func(c *CoverageConfig) { c.Target, c.Hardened = tg, hardened }
	}
	pins := []pin{
		{"checksum/data", cell(BackendChecksum, AddrNone), pinTally{0, 96, 163, 96, 0, 0, 0, 175, 0}},
		{"checksum/addr-wrong", cell(BackendChecksum, AddrWrong), pinTally{0, 96, 163, 96, 0, 0, 0, 175, 0}},
		{"checksum/addr-alias", cell(BackendChecksum, AddrAlias), pinTally{96, 0, 0, 0, 0, 96, 0, 0, 0}},
		{"checksum/addr-bit", cell(BackendChecksum, AddrIndexBit), pinTally{0, 96, 163, 96, 0, 0, 0, 175, 0}},
		{"addrsum/data", cell(BackendAddrsum, AddrNone), pinTally{96, 0, 0, 0, 0, 96, 0, 0, 0}},
		{"addrsum/addr-wrong", cell(BackendAddrsum, AddrWrong), pinTally{0, 96, 163, 96, 0, 0, 0, 175, 0}},
		{"addrsum/addr-alias", cell(BackendAddrsum, AddrAlias), pinTally{0, 96, 163, 96, 0, 0, 0, 175, 0}},
		{"addrsum/addr-bit", cell(BackendAddrsum, AddrIndexBit), pinTally{0, 96, 163, 96, 0, 0, 0, 175, 0}},
		{"dme/data", cell(BackendDME, AddrNone), pinTally{0, 96, 163, 96, 0, 0, 0, 175, 0}},
		{"dme/addr-wrong", cell(BackendDME, AddrWrong), pinTally{0, 96, 163, 96, 0, 0, 0, 175, 0}},
		{"dme/addr-alias", cell(BackendDME, AddrAlias), pinTally{0, 96, 163, 96, 0, 0, 0, 175, 0}},
		{"dme/addr-bit", cell(BackendDME, AddrIndexBit), pinTally{0, 96, 163, 96, 0, 0, 0, 175, 0}},
		{"accumulator/hardened", target(TargetAccumulator, true), pinTally{0, 96, 0, 96, 0, 0, 0, 96, 96}},
		{"accumulator/unhardened", target(TargetAccumulator, false), pinTally{0, 96, 0, 96, 0, 0, 96, 96, 0}},
		{"counter/hardened", target(TargetCounter, true), pinTally{0, 96, 0, 96, 0, 0, 0, 96, 96}},
		{"counter/unhardened", target(TargetCounter, false), pinTally{2, 94, 0, 94, 0, 0, 94, 94, 0}},
		{"masking/hardened", target(TargetMasking, true), pinTally{0, 96, 0, 96, 0, 0, 0, 96, 20}},
		{"masking/unhardened", target(TargetMasking, false), pinTally{20, 76, 0, 76, 0, 20, 0, 76, 0}},
		{"checkpoint/hardened", target(TargetCheckpoint, true), pinTally{0, 96, 0, 96, 0, 0, 0, 96, 0}},
		{"checkpoint/unhardened", target(TargetCheckpoint, false), pinTally{0, 96, 0, 96, 0, 0, 0, 192, 0}},
		{"addrsum/addr-wrong/hardened", func(c *CoverageConfig) {
			c.Backend, c.AddrFault, c.Hardened = BackendAddrsum, AddrWrong, true
		}, pinTally{0, 96, 0, 96, 0, 0, 0, 96, 0}},
		{"checksum/data/end-only", func(c *CoverageConfig) {
			c.BitFlips, c.EndOnlyVerify, c.Recover = 2, true, false
		}, pinTally{0, 96, 163, 0, 0, 0, 0, 0, 0}},
		// XOR escapes exactly when the two flips share a bit position, so
		// this cell's escape count pins the flip-coordinate draws.
		{"checksum/xor-2flip", func(c *CoverageConfig) {
			c.Kind, c.BitFlips, c.Trials = checksum.XOR, 2, 640
		}, pinTally{11, 629, 0, 629, 0, 11, 0, 629, 0}},
	}
	cells := make([]CoverageConfig, len(pins))
	for i, p := range pins {
		cells[i] = base
		p.mod(&cells[i])
	}
	res, err := (&Campaign{Cells: cells, Workers: 2}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pins {
		r := res.Results[i]
		got := pinTally{
			Undetected: r.Undetected, Detected: r.Detected, LatencySum: r.LatencySum,
			Recovered: r.Recovered, Skipped: r.Skipped,
			FN: r.FalseNegatives, FP: r.FalsePositives,
			Retries: r.Retries, Rebuilds: r.Rebuilds,
		}
		if got != p.want {
			t.Errorf("%s: tally %+v, pinned %+v", p.name, got, p.want)
		}
	}

	// The crash workload's final encoded state: memory words, accumulators,
	// shadows, operation counters and shadow use counters, all at once.
	rep, err := runCrashSpec(context.Background(), CrashSpec{
		Words: 12, Epochs: 5, Kind: checksum.ModAdd, Seed: 31,
		WAL: filepath.Join(t.TempDir(), "pin.wal"), CrashStep: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(rep.Final)
	const wantFinal = "cef0fc12fb71bf4edc62c9bf938e6b99dac6723c1a70cebd442eaf1edd990035"
	if got := hex.EncodeToString(sum[:]); got != wantFinal {
		t.Errorf("crash final state sha256 %s, pinned %s", got, wantFinal)
	}
}
