package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

// The tests run from the repository root, where the benchmark runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// smokeKernels keeps the smoke runs short: one affine and one irregular
// kernel, both quick to instrument.
var smokeKernels = []string{"cholesky", "CG"}

func readSpec(t *testing.T) map[string]any {
	t.Helper()
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestBenchmarkJSONShape(t *testing.T) {
	doc := readSpec(t)
	keys := []string{}
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if fmt.Sprint(keys) != "[command end_to_end paths per_layer run_seconds workloads]" {
		t.Fatalf("top-level keys %v", keys)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRe.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}
	for _, w := range doc["workloads"].([]any) {
		w := w.(map[string]any)
		checkName(w["name"].(string))
		if len(w) != 2 || len(w["why"].(string)) > 200 {
			t.Errorf("workload %v", w)
		}
		if workloads[w["name"].(string)] == nil {
			t.Errorf("workload %v has no implementation", w["name"])
		}
	}
	setup := false
	for _, kind := range []string{"end_to_end", "per_layer"} {
		for _, m := range doc[kind].([]any) {
			m := m.(map[string]any)
			checkName(m["name"].(string))
			if !unitRe.MatchString(m["unit"].(string)) || (m["better"] != "lower" && m["better"] != "higher") {
				t.Errorf("metric %v", m)
			}
			want := 3
			if kind == "end_to_end" {
				want = 4
				if b := m["bound"].(float64); b <= 0 || b > 0.25 {
					t.Errorf("metric %v bound out of range", m)
				}
				setup = setup || (m["name"] == "setup_s" && m["unit"] == "s" && m["better"] == "lower")
			}
			if len(m) != want {
				t.Errorf("metric %v has keys beyond name, unit, better (and bound)", m)
			}
		}
	}
	if !setup {
		t.Error("no setup_s end-to-end metric")
	}
}

// measureAll runs each workload once, traced, at smoke size and returns
// what each measured.
func measureAll(t *testing.T) map[string]*measurement {
	t.Helper()
	out := map[string]*measurement{}
	for name, mk := range workloads {
		scratch := t.TempDir()
		e := &env{opts: options{workload: name, seed: 3, seconds: 0.4, trace: true, kernels: smokeKernels}, scratch: scratch, cal: &calibrator{}}
		tr := newTracer()
		w := mk()
		if _, err := w.setup(context.Background(), e); err != nil {
			t.Fatalf("%s set-up: %v", name, err)
		}
		m, err := w.measure(context.Background(), e, 400*time.Millisecond, tr)
		if cerr := w.close(); cerr != nil {
			t.Errorf("%s close: %v", name, cerr)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.failed != 0 || m.attempted == 0 {
			t.Fatalf("%s: %d of %d failed: %v", name, m.failed, m.attempted, m.failures)
		}
		for k, v := range tr.selfTimes() {
			m.layer[k] = v
		}
		out[name] = m
	}
	return out
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declE2E, declLayer := map[string]bool{}, map[string]bool{}
	for _, m := range spec.EndToEnd {
		declE2E[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		declLayer[m.Name] = true
	}
	// Set by runBenchmark itself rather than by a workload.
	producedLayer := map[string]bool{"fail_share": true, "trace.overhead_share": true}
	for name, m := range measureAll(t) {
		e2e := map[string]bool{"setup_s": true}
		for k, v := range m.e2e {
			e2e[k] = true
			if !(v > 0) {
				t.Errorf("%s: end-to-end %s = %v, want > 0", name, k, v)
			}
		}
		if fmt.Sprint(sortedKeys(e2e)) != fmt.Sprint(sortedKeys(declE2E)) {
			t.Errorf("%s measures end-to-end %v, BENCHMARK.json declares %v", name, sortedKeys(e2e), sortedKeys(declE2E))
		}
		for _, src := range []map[string]float64{m.layer, m.named} {
			for k := range src {
				if !declLayer[k] && !declE2E[k] {
					t.Errorf("%s measures %s, which BENCHMARK.json does not declare", name, k)
				}
				producedLayer[k] = true
			}
		}
	}
	for _, k := range sortedKeys(declLayer) {
		if !producedLayer[k] && !smokeOmits(k) {
			t.Errorf("per-layer metric %s is declared but no workload measures it", k)
		}
	}
}

var kernelMetric = regexp.MustCompile(`^(compile|gennative)\.([A-Za-z0-9]+)\.`)

// smokeOmits reports per-kernel metrics of kernels outside smokeKernels.
func smokeOmits(name string) bool {
	m := kernelMetric.FindStringSubmatch(name)
	if m == nil {
		return false
	}
	for _, k := range smokeKernels {
		if k == m[2] {
			return false
		}
	}
	return true
}

func TestSmokeRunEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"compile", "kernels", "campaign", "service"} {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 5, seconds: 0.4, trace: trace, kernels: smokeKernels}
			res, rec, err := runBenchmark(context.Background(), o, "BENCHMARK.json")
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v %d/%d failed: %v", name, trace, res.Correct, res.Failed, res.Attempted, rec.Failures)
			}
			if rec.Host.Nproc < 1 || rec.Host.GoVersion == "" || rec.Host.TreeSHA256 == "" || rec.Inputs == nil {
				t.Fatalf("%s: incomplete record %+v", name, rec)
			}
			if trace {
				if _, err := os.Stat(rec.ChromePath); err != nil {
					t.Fatalf("%s: no Chrome trace: %v", name, err)
				}
				if _, ok := res.Metrics["self.bench_s"]; !ok {
					t.Fatalf("%s: traced run reports no self times", name)
				}
				continue
			}
			for k, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s: %s = %v", name, k, m.Value)
				}
			}
		}
	}
}
