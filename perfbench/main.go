// Command perfbench is the repository's benchmark. It drives the analyser
// in-process the way `fusion -checker all -workers 1` does — driver.Compile,
// Program.Absint when the tier is on, then per checker sparse enumeration
// with the program's pruning oracle and Engine.Check on one engine per
// subject — over progen's four large subjects, and prints its metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fusion-all --seed 0 --seconds 22 --trace 0
//
// A run generates the corpus (--corpus-seed offsets progen's seeds, --seed
// renames the functions; see rename), does one warm-up pass, compiles the
// corpus setupReps times for setup_s samples and then makes timed passes
// for --seconds. A pass compiles every subject and analyses it with every
// checker. With --trace 0 the run reports the end-to-end metrics, medians
// over its samples; with --trace 1 it alternates untraced and traced
// passes and reports the per-layer metrics. Every run checks that each
// pass reports exactly the feasible bugs progen injected and repeats the
// warm-up pass's exact counts. The last line of standard output is the
// JSON result. CHOICES.md records why the benchmark is built this way.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// setupReps is how many extra compiles of the corpus a run times
	// before its passes: one compile per pass is too few samples for a
	// steady setup_s median.
	setupReps = 8
	// minPasses is the fewest timed passes a run makes, however short
	// --seconds is.
	minPasses = 3
	// minTracedPairs is the fewest (untraced, traced) pass pairs a traced
	// run makes: two traced passes of 255 queries give the 500 query
	// samples engines.query_p98_ms needs, and fusion-all, with 175
	// queries a pass, makes more pairs within --seconds anyway.
	minTracedPairs = 2
	// minSelfCover is the share of the traced analysis time the per-layer
	// self times must account for.
	minSelfCover = 0.9
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	// samples are the per-pass values a median was taken over.
	samples []float64
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "fusion-all", "workload: fusion-all, fusion-noabsint or pinpoint-all")
	seed := flag.Int64("seed", 0, "renames the corpus's functions (0 = progen's names); the analysis work is the same for every seed")
	corpusSeed := flag.Int64("corpus-seed", 0, "added to progen's per-subject seeds (0 = progen's own seeds); a different corpus, with different work")
	seconds := flag.Float64("seconds", 30, "how long the timed passes run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: a traced run with per-layer metrics")
	scale := flag.Float64("scale", 0.002, "progen scale of the subjects")
	traceFile := flag.String("trace-file", "", "with --trace 1, write the last traced pass as Chrome trace-event JSON here")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	corpus := corpusSpec{scale: *scale, corpusSeed: *corpusSeed, seed: *seed}
	var res result
	if *traced == 1 {
		res, err = runTraced(w, corpus, budget, *traceFile)
	} else {
		res, err = runUntraced(w, corpus, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printTable(res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// session is the part of a run both kinds share: the corpus, the warm-up
// pass whose reports and counts every later pass must repeat, and the
// correctness verdict so far.
type session struct {
	ctx  context.Context
	w    workload
	subs []subject
	warm pass
	ok   bool
}

// corpusSpec is the arguments the corpus is generated from.
type corpusSpec struct {
	scale            float64
	corpusSeed, seed int64
}

func start(w workload, c corpusSpec) (*session, error) {
	subs, err := generate(c.scale, c.corpusSeed, c.seed)
	if err != nil {
		return nil, err
	}
	s := &session{ctx: context.Background(), w: w, subs: subs, ok: true}
	fmt.Printf("workload %s  seed %d  corpus-seed %d  scale %g  subjects %s  %s  GOMAXPROCS %d\n",
		w.name, c.seed, c.corpusSeed, c.scale, strings.Join(largeSubjects, ","), runtime.Version(), runtime.GOMAXPROCS(0))
	if s.warm, err = runPass(s.ctx, w, subs, nil); err != nil {
		return nil, err
	}
	return s, nil
}

// check holds p to the warm-up pass: the same reports and exact counts.
func (s *session) check(p pass) {
	if !reflect.DeepEqual(p.reports, s.warm.reports) {
		s.fail("a pass's reports differ from the warm-up pass's", diff(s.warm.reports, p.reports))
	}
	if p.t != s.warm.t {
		s.fail(fmt.Sprintf("a pass's counts differ from the warm-up pass's:\n  warm %+v\n  pass %+v", s.warm.t, p.t), nil)
	}
}

// finish gates the run on progen's ground truth: the warm-up pass, which
// every timed pass repeated, must report exactly the feasible injected
// bugs. That set is the same for every workload, so the check also holds
// the report sets of the workloads equal to each other.
func (s *session) finish() {
	t := s.warm.t
	want := expected(s.subs)
	fmt.Printf("ground truth: %d TP, %d FP of %d feasible injected bugs; report set digest %016x\n",
		t.TP, t.FP, t.Feasible, digest(s.warm.reports))
	if !reflect.DeepEqual(s.warm.reports, want) {
		s.fail("the report set is not the set of feasible injected bugs", diff(want, s.warm.reports))
	}
}

func (s *session) fail(msg string, lines []string) {
	s.ok = false
	fmt.Println("CHECK FAILED:", msg)
	for _, l := range lines {
		fmt.Println("  " + l)
	}
}

// diff lists the reports only one side has, "-" for want and "+" for got.
func diff(want, got map[report]bool) []string {
	var out []string
	for r := range want {
		if !got[r] {
			out = append(out, fmt.Sprintf("- %s %s line %d", r.subject, r.checker, r.line))
		}
	}
	for r := range got {
		if !want[r] {
			out = append(out, fmt.Sprintf("+ %s %s line %d", r.subject, r.checker, r.line))
		}
	}
	sort.Strings(out)
	return out
}

// digest fingerprints a report set, so runs can be compared at a glance.
func digest(reports map[report]bool) uint64 {
	var lines []string
	for r := range reports {
		lines = append(lines, fmt.Sprintf("%s %s %d", r.subject, r.checker, r.line))
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l + "\n"))
	}
	return h.Sum64()
}

func recall(t tally) float64 {
	if t.Feasible == 0 {
		return 0
	}
	return float64(t.TP) / float64(t.Feasible)
}

func precision(t tally) float64 {
	if t.TP+t.FP == 0 {
		return 0
	}
	return float64(t.TP) / float64(t.TP+t.FP)
}

// runUntraced measures the end-to-end metrics.
func runUntraced(w workload, c corpusSpec, budget time.Duration) (result, error) {
	s, err := start(w, c)
	if err != nil {
		return result{}, err
	}
	var setup []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		_, d, err := compile(s.ctx, s.subs, w, nil)
		if err != nil {
			return result{}, err
		}
		setup = append(setup, d.Seconds())
	}
	var analysis, cpu []float64
	res := result{Metrics: map[string]metric{}}
	t0 := time.Now()
	for n := 0; n < minPasses || time.Since(t0) < budget; n++ {
		p, err := runPass(s.ctx, w, s.subs, nil)
		if err != nil {
			return result{}, err
		}
		s.check(p)
		setup = append(setup, p.setup.Seconds())
		analysis = append(analysis, p.analysis.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		res.Attempted += p.t.Candidates
		res.Failed += p.t.Candidates - p.t.Clean
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	s.finish()
	t := s.warm.t
	res.Metrics["setup_s"] = medianMetric(setup, "s")
	res.Metrics["analysis_s"] = medianMetric(analysis, "s")
	res.Metrics["analysis_cpu_s"] = medianMetric(cpu, "s")
	res.Metrics["peak_rss_mb"] = metric{Value: rss, Unit: "MB", n: 1}
	res.Metrics["recall"] = metric{Value: recall(t), Unit: "ratio", n: 1}
	res.Metrics["precision"] = metric{Value: precision(t), Unit: "ratio", n: 1}
	res.Metrics["decided_frac"] = metric{Value: float64(t.Clean) / float64(t.Candidates), Unit: "ratio", n: 1}
	counts, err := json.Marshal(t)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("counts per pass: %s\n", counts)
	fmt.Printf("runtime per pass: alloc_mb %.3f  gc_cpu_s %.4f\n", float64(s.warm.alloc)/(1<<20), s.warm.gcCPU)
	res.Correct = s.ok
	return res, nil
}

// runTraced alternates untraced and traced passes and reports the
// per-layer metrics: self times are medians over the traced passes,
// counts are exact per pass, and the tracing overhead compares the two
// kinds of pass.
func runTraced(w workload, c corpusSpec, budget time.Duration, traceFile string) (result, error) {
	s, err := start(w, c)
	if err != nil {
		return result{}, err
	}
	var plain, tracedAnalysis, alloc, gcCPU, cover []float64
	layers := map[string][]float64{}
	var queries []time.Duration
	var last *tracer
	res := result{Metrics: map[string]metric{}}
	t0 := time.Now()
	for n := 0; n < minTracedPairs || time.Since(t0) < budget; n++ {
		p, err := runPass(s.ctx, w, s.subs, nil)
		if err != nil {
			return result{}, err
		}
		s.check(p)
		plain = append(plain, p.analysis.Seconds())
		alloc = append(alloc, float64(p.alloc)/(1<<20))
		gcCPU = append(gcCPU, p.gcCPU)

		tr := newTracer()
		p, err = runPass(s.ctx, w, s.subs, tr)
		if err != nil {
			return result{}, err
		}
		s.check(p)
		tracedAnalysis = append(tracedAnalysis, p.analysis.Seconds())
		ls := tr.layers()
		for k, d := range ls {
			layers[k] = append(layers[k], d.Seconds())
		}
		covered := 0.0
		for _, k := range analysisLayers {
			covered += ls[k].Seconds()
		}
		cover = append(cover, covered/p.analysis.Seconds())
		queries = append(queries, tr.queries()...)
		last = tr
		res.Attempted += 2 * p.t.Candidates
		res.Failed += 2 * (p.t.Candidates - p.t.Clean)
	}
	s.finish()
	if c := minOf(cover); c < minSelfCover {
		s.fail(fmt.Sprintf("per-layer self times cover only %.4f of a traced pass's analysis time", c), nil)
	}
	if traceFile != "" {
		if err := last.rec.WriteTrace(traceFile); err != nil {
			return result{}, err
		}
	}

	m := res.Metrics
	for k, v := range layers {
		m[k] = medianMetric(v, "s")
	}
	t := s.warm.t
	count := func(name string, v int64) { m[name] = metric{Value: float64(v), Unit: "count", n: 1} }
	count("pdg.vertices", int64(t.Vertices))
	count("pdg.edges", int64(t.Edges))
	count("absint.instantiations", int64(t.Inst))
	count("absint.zone_edges", int64(t.ZoneEdges))
	count("absint.pruned", int64(t.Pruned))
	count("absint.decided", int64(t.Decided))
	count("absint.decided_stride", int64(t.DecidedStride))
	count("absint.decided_zone", int64(t.DecidedZone))
	count("sparse.candidates", int64(t.Candidates+t.Pruned))
	count("engines.queries", int64(t.Candidates))
	count("engines.unknown", int64(t.Unknown))
	count("engines.degraded", int64(t.Degraded))
	count("engines.failed", int64(t.Failed))
	count("engines.retried", int64(t.Retried))
	count("sat.decisions", t.Decisions)
	count("sat.conflicts", t.Conflicts)
	count("sat.propagations", t.Propagations)
	count("solver.cache_hits", t.CacheHits)
	count("solver.reused_clauses", t.ReusedClauses)
	count("solve.preprocessed", int64(t.Preprocessed))
	useful := 0.0
	if d := t.Pruned + t.Candidates; d > 0 {
		useful = float64(t.Pruned+t.Decided) / float64(d)
	}
	m["absint.useful_frac"] = metric{Value: useful, Unit: "ratio", n: 1}
	m["engines.cond_mb"] = metric{Value: float64(t.CondBytes) / (1 << 20), Unit: "MB", n: 1}
	m["engines.query_p50_ms"] = percentileMetric(queries, 0.50)
	m["engines.query_p98_ms"] = percentileMetric(queries, 0.98)
	m["runtime.alloc_mb"] = medianMetric(alloc, "MB")
	m["runtime.gc_cpu_s"] = medianMetric(gcCPU, "s")
	m["trace.overhead_frac"] = metric{Value: median(tracedAnalysis)/median(plain) - 1, Unit: "ratio", n: len(plain)}
	m["trace.self_cover_frac"] = medianMetric(cover, "ratio")
	res.Correct = s.ok
	return res, nil
}

func medianMetric(v []float64, unit string) metric {
	return metric{Value: median(v), Unit: unit, n: len(v), samples: v}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

// percentileMetric is the nearest-rank percentile of the query times, in
// milliseconds.
func percentileMetric(d []time.Duration, q float64) metric {
	if len(d) == 0 {
		return metric{Unit: "ms"}
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return metric{Value: float64(s[i].Nanoseconds()) / 1e6, Unit: "ms", n: len(s)}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// printTable prints every metric by name with its unit and sample count.
func printTable(res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-32s %16s  %-6s %s\n", "metric", "value", "unit", "samples")
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Printf("%-32s %16.6g  %-6s %d", k, m.Value, m.Unit, m.n)
		if len(m.samples) > 1 {
			fmt.Printf("  %.4g", m.samples)
		}
		fmt.Println()
	}
	fmt.Printf("correct %v  attempted %d  failed %d\n", res.Correct, res.Attempted, res.Failed)
}
