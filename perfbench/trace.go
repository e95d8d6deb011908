package main

import (
	"time"

	"defuse/internal/instrument"
	"defuse/telemetry"
)

// The traced run records one span around each of the benchmark's calls into
// a layer, tagged with the layer's module name. Spans stay in memory and
// are written as a Chrome trace when the run ends. A layer's self time is
// the time its spans cover minus the time their child spans cover.

// layers lists the modules self time is reported for, as self.<layer>_s.
// "bench" is the benchmark's own harness code around the calls.
var layers = []string{
	"lang", "pdg", "deps", "usecount", "instrument", "codegen", "checksum",
	"faults", "server", "bench",
}

// phaseLayer maps an instrument.Report phase to the module doing the work.
var phaseLayer = map[string]string{
	"pdg.extract":         "pdg",
	"dependence.analysis": "deps",
	"polyhedral.counting": "usecount",
}

type tracer struct {
	t   *telemetry.Tracer
	buf *telemetry.SpanBuffer
}

func newTracer() *tracer {
	buf := telemetry.NewSpanBuffer(1 << 20)
	return &tracer{t: telemetry.NewTracer(buf), buf: buf}
}

// start opens a span for one call into layer; on a nil tracer it is inert.
func (tr *tracer) start(parent telemetry.SpanContext, layer, name string, attrs ...telemetry.Attr) telemetry.Span {
	if tr == nil {
		return telemetry.Span{}
	}
	return tr.t.Start(parent, name, append(attrs, telemetry.String("layer", layer))...)
}

// call runs f inside a span for layer and returns f's duration, measured
// whether or not tracing is on.
func (tr *tracer) call(parent telemetry.SpanContext, layer, name string, f func()) time.Duration {
	sp := tr.start(parent, layer, name)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	return d
}

// instrumentSpan ends an instrument span, carrying the report's phase
// timings so the phases show as child spans of their own modules.
func instrumentSpan(sp telemetry.Span, rep *instrument.Report) {
	if rep == nil {
		sp.End()
		return
	}
	var attrs []telemetry.Attr
	for _, p := range rep.Phases {
		attrs = append(attrs, telemetry.Int64("phase:"+p.Phase, int64(p.Duration)))
	}
	sp.End(attrs...)
}

// spans returns the recorded spans plus one synthetic child span per
// instrument phase, laid end to end from the start of its instrument call.
func (tr *tracer) spans() []telemetry.SpanData {
	recorded := tr.buf.Spans()
	out := append([]telemetry.SpanData(nil), recorded...)
	next := telemetry.SpanID(1 << 48)
	for _, s := range recorded {
		off := s.StartOff
		for _, a := range s.Attrs {
			if len(a.Key) < 6 || a.Key[:6] != "phase:" {
				continue
			}
			phase := a.Key[6:]
			d := time.Duration(a.Value.(int64))
			layer := phaseLayer[phase]
			if layer == "" {
				layer = "instrument"
			}
			next++
			out = append(out, telemetry.SpanData{
				Trace: s.Trace, ID: next, Parent: s.ID, Name: "instrument." + phase,
				Start: s.Start.Add(off - s.StartOff), StartOff: off, Duration: d,
				Attrs: []telemetry.Attr{telemetry.String("layer", layer)},
			})
			off += d
		}
	}
	return out
}

// selfTimes sums each layer's self time over the recorded spans.
func (tr *tracer) selfTimes() map[string]float64 {
	return selfTimes(tr.spans())
}

func selfTimes(spans []telemetry.SpanData) map[string]float64 {
	children := map[telemetry.SpanID]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.Duration
		}
	}
	out := map[string]float64{}
	for _, l := range layers {
		out["self."+l+"_s"] = 0
	}
	for _, s := range spans {
		layer := "bench"
		for _, a := range s.Attrs {
			if a.Key == "layer" {
				layer = a.Value.(string)
			}
		}
		self := s.Duration - children[s.ID]
		if self < 0 {
			self = 0
		}
		out["self."+layer+"_s"] += self.Seconds()
	}
	return out
}

func (tr *tracer) writeChrome(path string) error {
	b := telemetry.NewSpanBuffer(1 << 22)
	for _, s := range tr.spans() {
		b.RecordSpan(s)
	}
	return b.WriteChromeTraceFile(path)
}
