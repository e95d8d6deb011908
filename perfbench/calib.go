package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// Calibration. The benchmark runs on a share of a machine whose other
// tenants change how fast it computes: on a 2-vCPU Xeon host the generated
// kernels, the compiler and the calibration interpreter below ran 1.5–2x
// slower for seconds or minutes at a time while a dependent floating-point
// loop did not slow at all, which is what a busy hyperthread sibling does
// to code that issues many instructions per cycle. Raw times from two runs
// of the same code therefore differ by whichever state each run met.
//
// So every timed figure the benchmark bounds is scaled to a reference
// speed. Right before each timed block the benchmark runs a fixed
// calibration of its own (an interpreter over simulated memory with a
// checksum fold, map inserts with string keys into a pointer tree, and a
// sort: the kinds of work the generated kernels, the compiler and the
// fault campaign do) and multiplies the block's time by calRef ÷ the
// calibration's time. No program code runs in the calibration, so a change
// to the program moves the scaled figures by its full amount, while a
// slower host moves the calibration with them.

// calRef defines the reference speed: scaled times read as times on a
// host that runs one probe in exactly this long. The 2-vCPU Intel Xeon
// (2.1 GHz) the benchmark was developed on took 1.0–1.5 ms, by its state.
const calRef = 1.0e-3

// calibrator runs the calibration and keeps every probe's time.
type calibrator struct {
	raw []float64 // seconds per probe
}

// calSink keeps the units' results live.
var calSink uint64

// probe runs the calibration once and returns the factor that scales a
// time measured now to the reference speed. It starts from a collected
// heap, so no collection left over from the timed work runs beside it,
// and each unit runs twice and counts its faster run.
func (c *calibrator) probe() float64 {
	if c == nil {
		return 1
	}
	runtime.GC()
	logSum := 0.0
	for _, unit := range calUnits {
		best := math.Inf(1)
		for i := 0; i < 2; i++ {
			t0 := time.Now()
			calSink += unit()
			if dt := time.Since(t0).Seconds(); dt < best {
				best = dt
			}
		}
		logSum += math.Log(best)
	}
	// The geometric mean of the units, times their count, so the probe
	// reads as the time of one pass over all of them.
	t := math.Exp(logSum/float64(len(calUnits))) * float64(len(calUnits))
	c.raw = append(c.raw, t)
	return calRef / t
}

// calClock scales the times measured between its probe points. Each
// point takes the median factor of n probes.
type calClock struct {
	c    *calibrator
	n    int
	last float64
}

func (c *calibrator) clock(n int) *calClock {
	k := &calClock{c: c, n: n}
	k.last = k.point()
	return k
}

func (k *calClock) point() float64 {
	fs := make([]float64, k.n)
	for i := range fs {
		fs[i] = k.c.probe()
	}
	return median(fs)
}

// next takes a probe point and returns the factor for everything timed
// since the previous one: the mean of the factors at the two ends.
func (k *calClock) next() float64 {
	f := k.point()
	mean := (k.last + f) / 2
	k.last = f
	return mean
}

// calSummary is the calibration's record in a run's output.
type calSummary struct {
	Probes  int     `json:"probes"`
	MedianS float64 `json:"median_s"`
	RefS    float64 `json:"ref_s"`
}

func (c *calibrator) summary() calSummary {
	if c == nil {
		return calSummary{RefS: calRef}
	}
	return calSummary{Probes: len(c.raw), MedianS: median(c.raw), RefS: calRef}
}

var calUnits = []func() uint64{calInterp, calTree, calSort}

// calMem is the calibration interpreter's simulated memory.
var calMem = func() []uint64 {
	m := make([]uint64, 1<<13)
	for i := range m {
		m[i] = uint64(i) * 2654435761
	}
	return m
}()

type calOp struct {
	code uint8
	a, b int32
}

// calProg is a three-point stencil with a scramble: three loads, two adds,
// a multiply and a store per element.
var calProg = []calOp{{0, -1, 0}, {0, 0, 1}, {0, 1, 2}, {1, 0, 1}, {1, 0, 2}, {2, 0, 0}, {3, 0, 0}}

type calMemory interface {
	load(addr int) uint64
	store(addr int, v uint64)
}

// calSim is simulated memory with running sum and xor checksums.
type calSim struct {
	w        []uint64
	sum, xor uint64
	loads    int
}

func (m *calSim) load(a int) uint64 { m.loads++; return m.w[a] }

func (m *calSim) store(a int, v uint64) {
	m.sum += v - m.w[a]
	m.xor ^= v ^ m.w[a]
	m.w[a] = v
}

// calInterp interprets calProg over a fresh copy of calMem.
func calInterp() uint64 {
	sim := &calSim{w: append([]uint64(nil), calMem...)}
	var mem calMemory = sim
	n := len(sim.w)
	for pass := 0; pass < 3; pass++ {
		for i := 1; i < n-1; i++ {
			var regs [3]uint64
			for _, o := range calProg {
				switch o.code {
				case 0:
					regs[o.b] = mem.load(i + int(o.a))
				case 1:
					regs[o.a] += regs[o.b]
				case 2:
					regs[o.a] = regs[o.a] * 0x9E3779B1 >> 3
				case 3:
					mem.store(i, regs[0])
				}
			}
		}
	}
	return sim.sum ^ sim.xor ^ uint64(sim.loads)
}

type calNode struct {
	left, right *calNode
	key         string
}

// calTree inserts 1500 string keys into a map and an unbalanced tree.
func calTree() uint64 {
	m := map[string]int{}
	var root *calNode
	depth := 0
	for i := 0; i < 1500; i++ {
		k := strconv.Itoa(i * 7919 % 10007)
		m[k] = i
		n := &calNode{key: k}
		if root == nil {
			root = n
			continue
		}
		for p := root; ; depth++ {
			next := &p.right
			if k < p.key {
				next = &p.left
			}
			if *next == nil {
				*next = n
				break
			}
			p = *next
		}
	}
	return uint64(len(m))<<32 | uint64(depth)
}

var calSortSrc = rand.New(rand.NewSource(1)).Perm(5000)

// calSort sorts a fixed permutation.
func calSort() uint64 {
	s := append([]int(nil), calSortSrc...)
	sort.Ints(s)
	return uint64(s[len(s)/3])
}
