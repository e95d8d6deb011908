package main

import (
	"math"
	"testing"
)

func TestCalibrationUnitsAreDeterministic(t *testing.T) {
	for i, unit := range calUnits {
		if a, b := unit(), unit(); a != b {
			t.Errorf("unit %d returned %d, then %d", i, a, b)
		}
	}
}

func TestProbeScalesToReference(t *testing.T) {
	c := &calibrator{}
	f := c.probe()
	if len(c.raw) != 1 || !(c.raw[0] > 0) {
		t.Fatalf("probe recorded %v", c.raw)
	}
	if want := calRef / c.raw[0]; f != want || math.IsInf(f, 0) {
		t.Errorf("factor %v, want calRef ÷ probe time = %v", f, want)
	}
	clk := c.clock(3)
	if g := clk.next(); !(g > 0) {
		t.Errorf("clock factor %v", g)
	}
	if len(c.raw) != 7 {
		t.Errorf("clock(3) and one next took %d probes, want 1+3+3", len(c.raw))
	}
}

func TestNilCalibratorLeavesTimesUnscaled(t *testing.T) {
	var c *calibrator
	if f := c.clock(2).next(); f != 1 {
		t.Errorf("nil calibrator factor %v, want 1", f)
	}
	e := &env{}
	samples, err := e.repeatSetup(2, func(lap func()) error { lap(); return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		if samples[i] != e.setupRaw[i] {
			t.Errorf("set-up %d: scaled %v, raw %v", i, samples[i], e.setupRaw[i])
		}
	}
}
