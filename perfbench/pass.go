package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/progen"
	"fusion/internal/sat"
	"fusion/internal/sparse"
)

// largeSubjects are the four industrial-sized subjects of Table 2 — the
// ones Tables 3–5 and Figure 1(c) make their cost claims on.
var largeSubjects = []string{"ffmpeg", "v8", "mysql", "wine"}

// workload is one engine configuration over the shared corpus. Every
// workload analyses the same sources with every checker.
type workload struct {
	name     string
	pinpoint bool              // engine: Pinpoint (plain) instead of Fusion
	absint   driver.AbsintMode // the -absint mode the sources compile under
}

var workloads = []workload{
	{name: "fusion-all", absint: driver.AbsintOn},
	{name: "fusion-noabsint", absint: driver.AbsintOff},
	{name: "pinpoint-all", pinpoint: true, absint: driver.AbsintOn},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// subject is one generated source and the feasibility of its injected
// bugs, keyed by (checker, sink line) in compiled-program lines.
type subject struct {
	src   driver.Source
	truth map[bugKey]bool
}

type bugKey struct {
	checker string
	line    int
}

// generate builds the corpus: the large subjects at the given scale, with
// corpusSeed added to progen's per-subject seeds (0 keeps progen's own),
// and every defined function renamed by seed (0 keeps progen's names).
// The program receives only the text; ground truth stays here.
func generate(scale float64, corpusSeed, seed int64) ([]subject, error) {
	// Compile prepends the prelude, exactly as the fusion CLI does for a
	// user file, which shifts every generated line by its length.
	offset := strings.Count(checker.Prelude, "\n")
	var subs []subject
	for _, name := range largeSubjects {
		info, err := progen.SubjectByName(name)
		if err != nil {
			return nil, err
		}
		cfg := info.Config(scale)
		cfg.Seed += corpusSeed
		body, gt := progen.Generate(cfg)
		s := subject{src: driver.Source{Name: name, Text: rename(body, seed)}, truth: map[bugKey]bool{}}
		for _, b := range gt.Bugs {
			s.truth[bugKey{b.Checker, b.SinkLine + offset}] = b.Feasible
		}
		subs = append(subs, s)
	}
	return subs, nil
}

// rename prefixes every function the body defines with a tag drawn from
// seed, leaving the text unchanged for seed 0. Every seed is thus a
// different source text with the same analysis work: a shared prefix
// keeps the names' relative order, which the solver's variable order
// follows, and no line moves, so the ground truth needs no remapping.
// Offsetting progen's seeds instead changes the work itself: on a 2-vCPU
// machine one fusion-all pass took from 1.6 s to 5.8 s over offsets 0–11.
func rename(body string, seed int64) string {
	if seed == 0 {
		return body
	}
	defined := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "fun "); ok {
			if i := strings.IndexByte(rest, '('); i > 0 {
				defined[rest[:i]] = true
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	tag := make([]byte, 4)
	for i := range tag {
		tag[i] = byte('a' + rng.Intn(26))
	}
	var b strings.Builder
	for i := 0; i < len(body); {
		j := i
		for j < len(body) && isIdent(body[j]) {
			j++
		}
		if j == i {
			b.WriteByte(body[i])
			i++
			continue
		}
		if id := body[i:j]; defined[id] {
			b.Write(tag)
			b.WriteByte('_')
		}
		b.WriteString(body[i:j])
		i = j
	}
	return b.String()
}

func isIdent(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// compile runs driver.Compile over every subject with the fusion CLI's
// default options and returns the programs and the wall time it took.
func compile(ctx context.Context, subs []subject, w workload, tr *tracer) ([]*driver.Program, time.Duration, error) {
	opts := driver.Options{Prelude: true, Absint: w.absint, Telemetry: tr.recorder()}
	progs := make([]*driver.Program, len(subs))
	t0 := time.Now()
	for i, s := range subs {
		p, err := driver.Compile(ctx, s.src, opts)
		if err != nil {
			return nil, 0, err
		}
		progs[i] = p
	}
	return progs, time.Since(t0), nil
}

// report is one reported bug: a Sat verdict's sink.
type report struct {
	subject, checker string
	line             int
}

// checked is one (subject, checker) batch of verdicts, kept so tallying
// happens after the analysis clock stops.
type checked struct {
	sub      int
	checker  string
	pruned   int
	enumFail int
	verdicts []engines.Verdict
}

// tally holds a pass's exact counts. At one worker every field is a
// pure function of the corpus and the engine configuration.
type tally struct {
	Candidates    int   `json:"sparse.candidates"`
	Pruned        int   `json:"absint.pruned"`
	Decided       int   `json:"absint.decided"`
	DecidedStride int   `json:"absint.decided_stride"`
	DecidedZone   int   `json:"absint.decided_zone"`
	Inst          int   `json:"absint.instantiations"`
	ZoneEdges     int   `json:"absint.zone_edges"`
	Vertices      int   `json:"pdg.vertices"`
	Edges         int   `json:"pdg.edges"`
	Sat           int   `json:"verdicts.sat"`
	Unsat         int   `json:"verdicts.unsat"`
	Unknown       int   `json:"engines.unknown"`
	Degraded      int   `json:"engines.degraded"`
	Failed        int   `json:"engines.failed"`
	Retried       int   `json:"engines.retried"`
	Clean         int   `json:"engines.clean"`
	Preprocessed  int   `json:"solve.preprocessed"`
	Decisions     int64 `json:"sat.decisions"`
	Conflicts     int64 `json:"sat.conflicts"`
	Propagations  int64 `json:"sat.propagations"`
	CacheHits     int64 `json:"solver.cache_hits"`
	ReusedClauses int64 `json:"solver.reused_clauses"`
	CondBytes     int64 `json:"engines.cond_bytes"`
	TP            int   `json:"tp"`
	FP            int   `json:"fp"`
	Feasible      int   `json:"feasible"`
}

// clean reports a verdict the pipeline counts as decided: Sat or Unsat
// from a completed attempt, not degraded, abandoned or crashed.
func clean(v engines.Verdict) bool {
	return v.Status != sat.Unknown && !v.Degraded && !v.Abandoned && v.Failure == nil
}

// pass is one compile-and-analyse of the whole corpus.
type pass struct {
	setup    time.Duration // driver.Compile over every subject
	analysis time.Duration // compiled programs → last verdict
	cpu      time.Duration // process user+sys CPU during the analysis
	alloc    uint64        // heap bytes allocated during the analysis
	gcCPU    float64       // GC CPU seconds during the analysis
	t        tally
	reports  map[report]bool
}

// runPass compiles the corpus and analyses it the way `fusion -checker
// all -workers 1` does: per subject one engine reused across checkers,
// the absint analysis built up front when the tier is on, and the
// program's pruning oracle wired into enumeration. The heap is collected
// before each timed section so no section pays for the previous one's
// garbage. A non-nil tracer records spans around every call.
func runPass(ctx context.Context, w workload, subs []subject, tr *tracer) (pass, error) {
	var p pass
	runtime.GC()
	progs, setup, err := compile(ctx, subs, w, tr)
	if err != nil {
		return p, err
	}
	p.setup = setup
	runtime.GC()

	rt0, cpu0 := readRuntime(), cpuTime()
	t0 := time.Now()
	root := tr.begin("analysis", -1)
	batches, condBytes := analyse(ctx, w, progs, tr, root)
	tr.end(root)
	p.analysis = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	rt1 := readRuntime()
	p.alloc = rt1.alloc - rt0.alloc
	p.gcCPU = rt1.gcCPU - rt0.gcCPU

	p.t, p.reports = score(w, subs, progs, batches)
	p.t.CondBytes = condBytes
	return p, nil
}

// analyse is the timed part of a pass. It returns the verdict batches and
// the engines' retained condition bytes.
func analyse(ctx context.Context, w workload, progs []*driver.Program, tr *tracer, root int) ([]checked, int64) {
	var out []checked
	var condBytes int64
	for i, prog := range progs {
		var eng engines.Engine
		useAbsint := false
		if w.pinpoint {
			eng = engines.NewPinpoint(engines.Plain)
		} else {
			f := engines.NewFusion()
			if w.absint != driver.AbsintOff {
				id := tr.begin("absint.build", root)
				f.Opts.Absint = prog.Absint()
				tr.end(id)
				useAbsint = true
			}
			eng = f
		}
		engines.SetParallel(eng, 1)
		if tr != nil {
			engines.SetTelemetry(eng, tr.rec)
			engines.SetOnVerdict(eng, func(int, engines.Verdict) { tr.verdict() })
		}
		for _, spec := range checker.All() {
			id := tr.begin("sparse.enum", root)
			e := sparse.NewEngine(prog.Graph)
			e.Workers = 1
			if useAbsint {
				e.Oracle = prog.Oracle()
			}
			cands := e.RunContext(ctx, spec)
			tr.end(id)

			tr.beginCheck(root)
			vs := eng.Check(ctx, prog.Graph, cands)
			tr.endCheck()
			engines.SortVerdicts(vs)
			out = append(out, checked{sub: i, checker: spec.Name, pruned: e.Pruned,
				enumFail: len(e.Failures), verdicts: vs})
		}
		condBytes += eng.ConditionBytes()
	}
	return out, condBytes
}

// score tallies a pass's verdicts and reports against the ground truth.
func score(w workload, subs []subject, progs []*driver.Program, batches []checked) (tally, map[report]bool) {
	var t tally
	reports := map[report]bool{}
	for _, prog := range progs {
		t.Vertices += prog.Stats.Vertices
		t.Edges += prog.Stats.Edges()
		if !w.pinpoint && w.absint != driver.AbsintOff {
			if an := prog.Absint(); an != nil {
				t.Inst += an.Stats.Instantiations
				t.ZoneEdges += an.Stats.ZoneEdges
			}
		}
		if prog.AbsintFailure() != nil {
			t.Failed++
		}
	}
	for _, b := range batches {
		t.Candidates += len(b.verdicts)
		t.Pruned += b.pruned
		t.Failed += b.enumFail
		name := subs[b.sub].src.Name
		for _, v := range b.verdicts {
			switch v.Status {
			case sat.Sat:
				t.Sat++
				if !v.Degraded && v.Failure == nil {
					reports[report{name, b.checker, v.Cand.Sink.Pos.Line}] = true
				}
			case sat.Unsat:
				t.Unsat++
			default:
				t.Unknown++
			}
			if clean(v) {
				t.Clean++
			}
			if v.Degraded {
				t.Degraded++
			}
			if v.Failure != nil || v.Abandoned {
				t.Failed++
			}
			if v.Attempts > 1 {
				t.Retried++
			}
			if v.Preprocessed {
				t.Preprocessed++
			}
			if v.DecidedByAbsint {
				t.Decided++
				if v.DecidedByStride {
					t.DecidedStride++
				}
				if v.DecidedByZone {
					t.DecidedZone++
				}
			}
			t.Decisions += v.Decisions
			t.Conflicts += v.Conflicts
			t.Propagations += v.Props
			t.CacheHits += v.CacheHits
			t.ReusedClauses += v.ReusedClauses
		}
	}
	want := expected(subs)
	t.Feasible = len(want)
	for r := range reports {
		if want[r] {
			t.TP++
		} else {
			t.FP++
		}
	}
	return t, reports
}

// expected is the report set a correct analysis produces: exactly the
// feasible injected bugs. It is the same for every workload, so a run
// that matches it also matches every other workload's report set.
func expected(subs []subject) map[report]bool {
	want := map[report]bool{}
	for _, s := range subs {
		for k, feasible := range s.truth {
			if feasible {
				want[report{s.src.Name, k.checker, k.line}] = true
			}
		}
	}
	return want
}

type runtimeStats struct {
	alloc uint64
	gcCPU float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{alloc: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64()}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
