// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output it produces, and prints
// one JSON result line with the metrics BENCHMARK.json declares:
//
//	bash perfbench/run.sh --workload kernels --seed 1 --seconds 8 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 a
// traced run reports the per-layer metrics, each layer's self time from
// spans recorded around the benchmark's calls into it, and the tracing
// overhead, and writes a Chrome trace under .bench_build. Run it from the
// repository root. README.md in this directory defines every workload and
// metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark scenario. setup prepares it and returns the
// seconds each of its set-ups took (every set-up repeats; setup_s is the
// median); measure runs the timed part for about d and may be called more
// than once after one setup. Set-up is never traced.
type workload interface {
	setup(ctx context.Context, e *env) ([]float64, error)
	measure(ctx context.Context, e *env, d time.Duration, tr *tracer) (*measurement, error)
	close() error
}

// env is what every workload gets: its options and a scratch directory
// inside the checkout.
type env struct {
	opts    options
	scratch string
	// cal scales timed figures to the reference speed; setupRaw holds
	// each set-up's unscaled seconds.
	cal      *calibrator
	setupRaw []float64
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// kernels restricts the kernel set (empty: all ten Table 2 kernels);
	// the tests use it to keep smoke runs short.
	kernels []string
}

// measurement is one measured span of a workload.
type measurement struct {
	// e2e holds every end-to-end metric except setup_s; layer holds the
	// per-layer metrics this workload exercises.
	e2e   map[string]float64
	layer map[string]float64
	// rawOpMS is op_ms computed from unscaled times, for the record.
	rawOpMS           float64
	attempted, failed int64
	failures          []string
	// inputs, timings and named (the workload's absolute figures, also
	// reported as per-layer metrics) go into the run record.
	inputs  map[string]any
	timings map[string]summary
	named   map[string]float64
}

func (m *measurement) fail(format string, args ...any) { m.failN(1, format, args...) }

// geomeans returns the geometric mean of each named group, counting a
// group it cannot average as a failure.
func (m *measurement) geomeans(groups map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	for name, vals := range groups {
		g, err := geomean(vals)
		if err != nil {
			m.fail("%s: %v", name, err)
			continue
		}
		out[name] = g
	}
	return out
}

// failN counts n failed operations under one description.
func (m *measurement) failN(n int, format string, args ...any) {
	m.failed += int64(n)
	if len(m.failures) < 10 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func() workload{
	"compile":  func() workload { return &compileWorkload{} },
	"kernels":  func() workload { return &kernelsWorkload{} },
	"campaign": func() workload { return &campaignWorkload{} },
	"service":  func() workload { return &serviceWorkload{} },
}

// buildDir is where builds, scratch files and traces go, inside the
// checkout the benchmark runs from.
const buildDir = ".bench_build"

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: compile, kernels, campaign or service")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, rec, err := runBenchmark(ctx, o, "BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := printResult(os.Stdout, res, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		for _, f := range rec.Failures {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
		}
		os.Exit(1)
	}
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is printed on the line before the result: the host, the inputs,
// every timing with its spread, and the workload's named metrics.
type record struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Host      hostInfo       `json:"host"`
	Inputs    map[string]any `json:"inputs"`
	SetupS    []float64      `json:"setup_s_samples,omitempty"`
	SetupRawS []float64      `json:"setup_raw_s_samples,omitempty"`
	// Calibration is how fast this host ran the calibration; RawOpMS is
	// op_ms before scaling.
	Calibration calSummary         `json:"calibration"`
	RawOpMS     float64            `json:"raw_op_ms"`
	Named       map[string]float64 `json:"named"`
	Layer       map[string]float64 `json:"layer"`
	Timings     map[string]summary `json:"timings"`
	Failures    []string           `json:"failures,omitempty"`
	ChromePath  string             `json:"chrome_trace,omitempty"`
	// TraceOverhead is the traced minus the untraced op_ms.
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`
}

func runBenchmark(ctx context.Context, o options, specPath string) (*result, *record, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return nil, nil, err
	}
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if !spec.hasWorkload(o.workload) {
		return nil, nil, fmt.Errorf("workload %q is not declared in %s", o.workload, specPath)
	}
	if o.seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, nil, err
	}
	scratch, err := os.MkdirTemp(buildDir, "run-"+o.workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(scratch)

	e := &env{opts: o, scratch: scratch, cal: &calibrator{}}
	w := mk()
	defer w.close()
	setupSamples, err := w.setup(ctx, e)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
	}
	setupS := median(setupSamples)
	d := time.Duration(o.seconds * float64(time.Second))
	rec := &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Host: host(),
		SetupS: setupSamples, SetupRawS: e.setupRaw}
	var m *measurement
	values := map[string]float64{}
	if !o.trace {
		if m, err = w.measure(ctx, e, d, nil); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
		}
		values["setup_s"] = setupS
		for k, v := range m.e2e {
			values[k] = v
		}
	} else {
		// An untraced measurement, then a traced one of the same length:
		// the per-layer figures come from the first, self times and the
		// tracing overhead from the second. Spans cover only the traced
		// measurement, never set-up.
		if m, err = w.measure(ctx, e, d, nil); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
		}
		tr := newTracer()
		traced, err := w.measure(ctx, e, d, tr)
		if err != nil {
			return nil, nil, fmt.Errorf("%s (traced): %w", o.workload, err)
		}
		m.attempted += traced.attempted
		m.failed += traced.failed
		m.failures = append(m.failures, traced.failures...)
		for _, src := range []map[string]float64{m.layer, m.named, tr.selfTimes()} {
			for k, v := range src {
				values[k] = v
			}
		}
		// The share of extra time tracing added to op_ms.
		base, withTrace := m.e2e["op_ms"], traced.e2e["op_ms"]
		values["trace.overhead_share"] = withTrace/base - 1
		rec.TraceOverhead = map[string]float64{"op_ms": withTrace - base}
		rec.ChromePath = filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		if err := tr.writeChrome(rec.ChromePath); err != nil {
			return nil, nil, err
		}
	}
	if m.attempted > 0 {
		values["fail_share"] = float64(m.failed) / float64(m.attempted)
	}
	rec.Inputs, rec.Timings, rec.Named, rec.Layer, rec.Failures = m.inputs, m.timings, m.named, m.layer, m.failures
	rec.Calibration, rec.RawOpMS = e.cal.summary(), m.rawOpMS
	rec.Named["setup_s"] = setupS
	rec.Named["fail_share"] = values["fail_share"]
	for k, v := range m.e2e {
		rec.Named[k] = v
	}
	metrics, err := spec.metricsFor(values, o.trace)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	res := &result{
		Correct:   m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   metrics,
	}
	return res, rec, nil
}

func printResult(f *os.File, res *result, rec *record) error {
	rb, err := json.Marshal(map[string]any{"perfbench_record": rec})
	if err != nil {
		return err
	}
	lb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", rb, lb)
	return err
}

// spec is the part of BENCHMARK.json the program needs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricsFor picks the declared metrics of one kind from the measured values.
// Every end-to-end metric must be measured; a per-layer metric the
// workload does not exercise reads 0. A measured name that is not declared
// is a benchmark bug.
func (s *spec) metricsFor(values map[string]float64, perLayer bool) (map[string]metric, error) {
	decl, other := s.EndToEnd, s.PerLayer
	if perLayer {
		decl, other = s.PerLayer, s.EndToEnd
	}
	known := map[string]bool{}
	for _, m := range other {
		known[m.Name] = true
	}
	out := map[string]metric{}
	for _, m := range decl {
		v, ok := values[m.Name]
		if !ok && !perLayer {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	var extra []string
	for k := range values {
		if _, ok := out[k]; !ok && !known[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return out, nil
}
