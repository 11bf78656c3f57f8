package main

import (
	"time"

	"fusion/internal/telemetry"
)

// tracer keeps one traced pass's spans in memory: the benchmark's own
// spans around each public call it makes, with their parents, plus the
// program's telemetry.Recorder, which the engines and the driver fill
// with their stage walls. A nil *tracer records nothing, so the untraced
// path runs exactly the calls the fusion CLI makes.
type tracer struct {
	rec   *telemetry.Recorder
	spans []span
	// check is the open Engine.Check span; last is when it started or
	// its previous verdict settled. At one worker a candidate's query
	// span runs from one to the next.
	check int
	last  time.Time
}

type span struct {
	name   string
	parent int // index into spans, -1 for a root
	t0, t1 time.Time
}

func newTracer() *tracer { return &tracer{rec: telemetry.New()} }

func (t *tracer) recorder() *telemetry.Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, t0: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.t1 = time.Now()
	t.rec.Span(0, "perfbench", s.name, s.t0, s.t1)
}

func (t *tracer) beginCheck(parent int) {
	if t == nil {
		return
	}
	t.check = t.begin("engines.check", parent)
	t.last = t.spans[t.check].t0
}

func (t *tracer) endCheck() {
	if t != nil {
		t.end(t.check)
	}
}

// verdict closes the current candidate's query span. Engine.Check calls
// it through OnVerdict as each verdict settles.
func (t *tracer) verdict() {
	now := time.Now()
	t.spans = append(t.spans, span{name: "engines.query", parent: t.check, t0: t.last, t1: now})
	t.last = now
}

// queries returns the duration of every query span, in order.
func (t *tracer) queries() []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == "engines.query" {
			out = append(out, s.t1.Sub(s.t0))
		}
	}
	return out
}

// Layer keys of the solve path, as the engines record them in the
// Recorder's wall section. solve.build encloses solve.local_preprocess.
const (
	wallProbe      = "solve.probe"
	wallSearch     = "solve.search"
	wallPreprocess = "solve.preprocess"
	wallBuild      = "solve.build"
	wallLocalPrep  = "solve.local_preprocess"
)

// layers returns each layer's self time over the traced pass: a span's
// duration minus what its child spans cover. The solve-path layers
// inside a query are not spans but the Recorder's wall totals, so they
// are subtracted from the query spans as aggregate children.
func (t *tracer) layers() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		d := s.t1.Sub(s.t0)
		self[s.name] += d
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= d
		}
	}
	wall := t.rec.Snapshot().WallNS
	ns := func(k string) time.Duration { return time.Duration(wall[k]) }
	out := map[string]time.Duration{
		"absint.build_s":                self["absint.build"],
		"sparse.enum_s":                 self["sparse.enum"],
		"engines.check_s":               self["engines.check"] + self["engines.query"] - ns(wallProbe) - ns(wallSearch) - ns(wallPreprocess) - ns(wallBuild),
		"fusioncore.build_s":            ns(wallBuild) - ns(wallLocalPrep),
		"fusioncore.local_preprocess_s": ns(wallLocalPrep),
		"smt.preprocess_s":              ns(wallPreprocess),
		"sat.search_s":                  ns(wallSearch),
		"solver.probe_s":                ns(wallProbe),
		"lang.parse_s":                  ns("compile.parse"),
		"sema.check_s":                  ns("compile.sema"),
		"unroll.normalize_s":            ns("compile.unroll"),
		"ssa.build_s":                   ns("compile.ssa"),
		"pdg.build_s":                   ns("compile.pdg"),
	}
	return out
}

// analysisLayers are the layers that partition the analysis span; their
// self times must cover it.
var analysisLayers = []string{
	"absint.build_s", "sparse.enum_s", "engines.check_s", "fusioncore.build_s",
	"fusioncore.local_preprocess_s", "smt.preprocess_s", "sat.search_s", "solver.probe_s",
}
