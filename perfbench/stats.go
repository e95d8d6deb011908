package main

import (
	"fmt"
	"math"
	"sort"
)

// Percentiles here are exact: they come from the raw samples by the
// nearest-rank rule, never from histogram-bucket interpolation.

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of samples:
// the smallest sample with at least q of all samples at or below it.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

// tailLevels are the percentiles a summary may report, highest first.
var tailLevels = []struct {
	q    float64
	name string
}{{0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}, {0.5, "p50"}}

// tailLevel returns the highest percentile of tailLevels that leaves at
// least 10 samples above it, falling back to the median.
func tailLevel(n int) (q float64, name string) {
	for _, l := range tailLevels {
		if float64(n)*(1-l.q) >= 10-1e-9 {
			return l.q, l.name
		}
	}
	return 0.5, "p50"
}

// summary is how every timing is reported: its median, the highest
// percentile with at least ten samples beyond it, and the sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Tail   string  `json:"tail"`
	TailV  float64 `json:"tail_value"`
	Unit   string  `json:"unit"`
}

func summarize(samples []float64, unit string) summary {
	q, name := tailLevel(len(samples))
	return summary{N: len(samples), Median: median(samples), Tail: name, TailV: percentile(samples, q), Unit: unit}
}

// geomean returns the geometric mean of positive values.
func geomean(vals []float64) (float64, error) {
	if len(vals) == 0 {
		return 0, fmt.Errorf("geomean of no values")
	}
	sum := 0.0
	for _, v := range vals {
		if !(v > 0) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("geomean of non-positive value %v", v)
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals))), nil
}

// series collects named sample lists in first-seen order.
type series struct {
	order []string
	vals  map[string][]float64
}

func newSeries() *series { return &series{vals: map[string][]float64{}} }

func (s *series) add(name string, v float64) {
	if _, ok := s.vals[name]; !ok {
		s.order = append(s.order, name)
	}
	s.vals[name] = append(s.vals[name], v)
}

func (s *series) median(name string) float64 { return median(s.vals[name]) }

// addTo adds every series' summary to dst under prefix.
func (s *series) addTo(dst map[string]summary, prefix, unit string, scale float64) {
	for k, v := range s.summaries(unit, scale) {
		dst[prefix+k] = v
	}
}

// summaries reports every series with the given unit and scale (e.g. 1e3
// to turn seconds into milliseconds).
func (s *series) summaries(unit string, scale float64) map[string]summary {
	out := map[string]summary{}
	for _, name := range s.order {
		scaled := make([]float64, len(s.vals[name]))
		for i, v := range s.vals[name] {
			scaled[i] = v * scale
		}
		out[name] = summarize(scaled, unit)
	}
	return out
}
