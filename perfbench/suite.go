package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"defuse/internal/bench"
	"defuse/internal/codegen"
	"defuse/internal/codegen/gennative"
	"defuse/internal/interp"
	"defuse/internal/lang"
)

// variants are the three compilation modes of Figure 10, in the order the
// benchmark runs them.
var variants = []bench.Variant{bench.Original, bench.Resilient, bench.ResilientOpt}

// kernelParams fixes each kernel's problem size for the kernels and
// campaign workloads, chosen so the Original runs take roughly 0.3–2 ms
// each on a 2-CPU x86-64 host. bench.Params(scale) is not used: one scale
// gives sizes that differ by orders of magnitude between kernels.
var kernelParams = map[string]map[string]int64{
	"ADI":      {"tsteps": 4, "n": 40},
	"CG":       {"n": 200, "k": 8, "maxiter": 8},
	"cholesky": {"n": 120},
	"dsyrk":    {"n": 32, "m": 32},
	"jacobi1d": {"tsteps": 20, "n": 1500},
	"LU":       {"n": 60},
	"moldyn":   {"n": 1000, "k": 6, "maxiter": 3},
	"seidel":   {"tsteps": 4, "n": 40},
	"strsm":    {"n": 40, "m": 40},
	"trisolv":  {"n": 300},
}

// oracleParams are the small sizes at which the compile workload runs
// every compiled variant on the interpreter to check it.
var oracleParams = map[string]map[string]int64{
	"ADI":      {"tsteps": 3, "n": 24},
	"CG":       {"n": 256, "k": 4, "maxiter": 4},
	"cholesky": {"n": 48},
	"dsyrk":    {"n": 32, "m": 32},
	"jacobi1d": {"tsteps": 16, "n": 256},
	"LU":       {"n": 48},
	"moldyn":   {"n": 256, "k": 3, "maxiter": 4},
	"seidel":   {"tsteps": 3, "n": 24},
	"strsm":    {"n": 32, "m": 32},
	"trisolv":  {"n": 256},
}

// suite returns the Table 2 kernels, restricted to names when non-empty.
func suite(names []string) ([]*bench.Benchmark, error) {
	all := bench.Suite()
	if len(names) == 0 {
		return all, nil
	}
	var out []*bench.Benchmark
	for _, n := range names {
		b, err := bench.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// dataRNG is the input stream for one kernel: a function of the workload
// seed and the kernel's own seed only.
func dataRNG(seed int64, b *bench.Benchmark) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + b.Seed))
}

// compiled is one kernel variant ready to run: its program (for the
// machine layout) and its committed generated entry point.
type compiled struct {
	b      *bench.Benchmark
	v      bench.Variant
	prog   *lang.Program
	kernel gennative.Kernel
	params map[string]int64
}

func (c *compiled) name() string { return c.b.Name + "." + string(c.v) }

// machine builds a fresh machine with the kernel's seeded data.
func (c *compiled) machine(seed int64) (*codegen.Machine, error) {
	m, err := codegen.MachineFor(c.prog, c.params)
	if err != nil {
		return nil, err
	}
	c.b.Init(m, c.params, dataRNG(seed, c.b))
	return m, nil
}

// suiteRepeats is how many times the kernels and campaign workloads run
// their set-up, which instruments the 20 protected variants; setup_s is
// the median. Each set-up takes 7–15 s on a 2-CPU host, so more repeats
// would not fit the benchmark's time budget.
const suiteRepeats = 2

// compileSuite instruments every protected variant of the kernels, the
// set-up the kernels and campaign workloads share. The instrumenter keeps
// unsynchronized global state, so it runs on one goroutine.
// It calls lap after each kernel.
func compileSuite(ctx context.Context, kernels []*bench.Benchmark, lap func()) ([]*compiled, error) {
	var out []*compiled
	for _, b := range kernels {
		for _, v := range variants {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			prog, err := b.BuildVariant(v)
			if err != nil {
				return nil, fmt.Errorf("instrument %s/%s: %w", b.Name, v, err)
			}
			k, ok := gennative.Lookup(b.Name, string(v))
			if !ok {
				return nil, fmt.Errorf("no generated kernel for %s/%s", b.Name, v)
			}
			out = append(out, &compiled{b: b, v: v, prog: prog, kernel: k, params: kernelParams[b.Name]})
		}
		lap()
	}
	return out, nil
}

// interpOutputs runs prog on the interpreter with b's seeded data at
// params and snapshots its outputs: the reference oracle.
func interpOutputs(b *bench.Benchmark, prog *lang.Program, params map[string]int64, seed int64) (map[string][]float64, error) {
	m, err := interp.New(prog, params)
	if err != nil {
		return nil, err
	}
	b.Init(m, params, dataRNG(seed, b))
	if err := m.Run(); err != nil {
		return nil, err
	}
	return floatOutputs(b, m)
}

// repeatSetup runs one set-up n times and returns each run's seconds
// scaled to the reference speed; the raw seconds go to e.setupRaw. The
// set-up calls lap between its steps (each kernel, say): every lap is
// scaled by the calibration at its two ends, which is not timed; each end
// takes three probes, because one lap can last seconds.
func (e *env) repeatSetup(n int, setup func(lap func()) error) ([]float64, error) {
	var samples []float64
	for i := 0; i < n; i++ {
		clk := e.cal.clock(3)
		scaled, raw := 0.0, 0.0
		t0 := time.Now()
		lap := func() {
			dt := time.Since(t0).Seconds()
			scaled += dt * clk.next()
			raw += dt
			t0 = time.Now()
		}
		if err := setup(lap); err != nil {
			return nil, err
		}
		lap()
		samples = append(samples, scaled)
		e.setupRaw = append(e.setupRaw, raw)
	}
	return samples, nil
}

// floatOutputs snapshots the float arrays the kernel's source declares.
type floatHost interface {
	SnapshotFloats(name string) ([]float64, error)
}

func floatOutputs(b *bench.Benchmark, m floatHost) (map[string][]float64, error) {
	out := map[string][]float64{}
	for _, d := range b.Program().Decls {
		if d.Type == lang.TypeFloat && d.IsArray() {
			s, err := m.SnapshotFloats(d.Name)
			if err != nil {
				return nil, err
			}
			out[d.Name] = s
		}
	}
	return out, nil
}

// sameFloats reports the first difference between two output sets, ""
// when they are bit-identical (NaNs compare equal).
func sameFloats(want, got map[string][]float64) string {
	for arr, w := range want {
		g := got[arr]
		if len(g) != len(w) {
			return fmt.Sprintf("%s has %d elements, want %d", arr, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) && !(math.IsNaN(w[i]) && math.IsNaN(g[i])) {
				return fmt.Sprintf("%s[%d] = %v, want %v", arr, i, g[i], w[i])
			}
		}
	}
	return ""
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
