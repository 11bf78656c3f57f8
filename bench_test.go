package fusion_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices DESIGN.md calls out. The
// benchmark bodies run scaled-down configurations so `go test -bench=.`
// completes in minutes; cmd/fusionbench runs the full experiments and
// prints the tables.

import (
	"context"
	"testing"
	"time"

	"fusion/internal/bench"
	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/fusioncore"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/smt"
	"fusion/internal/sparse"
)

const benchScale = 0.01

var benchBudget = bench.Budget{Time: 5 * time.Minute, CondBytes: 2 << 30}

// compile caches subjects across benchmarks within one process, per
// absint tier mode.
var subjectCache = map[string]*bench.Subject{}

func compile(b *testing.B, info progen.Subject, scale float64, mode driver.AbsintMode) *bench.Subject {
	b.Helper()
	key := info.Name + "/" + mode.String()
	if s, ok := subjectCache[key]; ok {
		return s
	}
	s, err := bench.Compile(context.Background(), info, scale, mode)
	if err != nil {
		b.Fatal(err)
	}
	subjectCache[key] = s
	return s
}

func runEngine(b *testing.B, sub *bench.Subject, spec *sparse.Spec, mk func() engines.Engine) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := bench.Run(context.Background(), sub, spec, mk(), benchBudget)
		if c.Failed {
			b.Fatalf("engine run failed: %s", c.FailNote)
		}
	}
}

// BenchmarkTable1 measures the cost model sweep: conventional O(kn+m) vs
// fused O(n+m) per k.
func BenchmarkTable1(b *testing.B) {
	for _, k := range []int{2, 8} {
		b.Run(map[int]string{2: "k=2", 8: "k=8"}[k], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := bench.Table1Measure(context.Background(), k, 30, 20)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(row.ConvCondTreeSize), "conv-size")
				b.ReportMetric(float64(row.FusionSliceSize), "fusion-slice")
			}
		})
	}
}

// BenchmarkTable2 measures subject compilation (generation, SSA, PDG).
func BenchmarkTable2(b *testing.B) {
	info := progen.Subjects[9] // vortex
	for i := 0; i < b.N; i++ {
		if _, err := bench.Compile(context.Background(), info, benchScale, driver.AbsintOff); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 compares the two engines on null checking.
func BenchmarkTable3(b *testing.B) {
	sub := compile(b, progen.Subjects[9], benchScale, driver.AbsintOff)
	b.Run("fusion", func(b *testing.B) {
		runEngine(b, sub, checker.NullDeref(), func() engines.Engine { return engines.NewFusion() })
	})
	b.Run("pinpoint", func(b *testing.B) {
		runEngine(b, sub, checker.NullDeref(), func() engines.Engine { return engines.NewPinpoint(engines.Plain) })
	})
}

// BenchmarkFig10 adds the formula-simplification variants.
func BenchmarkFig10(b *testing.B) {
	sub := compile(b, progen.Subjects[9], benchScale, driver.AbsintOff)
	b.Run("pinpoint-lfs", func(b *testing.B) {
		runEngine(b, sub, checker.NullDeref(), func() engines.Engine { return engines.NewPinpoint(engines.LFS) })
	})
	b.Run("pinpoint-hfs", func(b *testing.B) {
		runEngine(b, sub, checker.NullDeref(), func() engines.Engine { return engines.NewPinpoint(engines.HFS) })
	})
}

// BenchmarkFig11 measures a single fused solve versus a standalone solve of
// the eagerly translated condition, per instance.
func BenchmarkFig11(b *testing.B) {
	sub := compile(b, progen.Subjects[9], benchScale, driver.AbsintOff)
	cands := sparse.NewEngine(sub.Graph).Run(checker.NullDeref())
	if len(cands) == 0 {
		b.Fatal("no candidates")
	}
	path := []pdg.Path{cands[0].Path}
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tb := smt.NewBuilder()
			fusioncore.Solve(context.Background(), tb, sub.Graph, path, fusioncore.Options{})
		}
	})
	b.Run("standalone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tb := smt.NewBuilder()
			fusioncore.Solve(context.Background(), tb, sub.Graph, path, fusioncore.Options{Unoptimized: true})
		}
	})
}

// BenchmarkTable4 runs the taint analyses.
func BenchmarkTable4(b *testing.B) {
	sub := compile(b, progen.Subjects[9], benchScale, driver.AbsintOff)
	b.Run("cwe23-fusion", func(b *testing.B) {
		runEngine(b, sub, checker.PathTraversal(), func() engines.Engine { return engines.NewFusion() })
	})
	b.Run("cwe402-fusion", func(b *testing.B) {
		runEngine(b, sub, checker.PrivateLeak(), func() engines.Engine { return engines.NewFusion() })
	})
	b.Run("cwe23-pinpoint", func(b *testing.B) {
		runEngine(b, sub, checker.PathTraversal(), func() engines.Engine { return engines.NewPinpoint(engines.Plain) })
	})
}

// BenchmarkTable5 compares Fusion with the Infer-like analyzer.
func BenchmarkTable5(b *testing.B) {
	sub := compile(b, progen.Subjects[9], benchScale, driver.AbsintOff)
	b.Run("fusion", func(b *testing.B) {
		runEngine(b, sub, checker.NullDeref(), func() engines.Engine { return engines.NewFusion() })
	})
	b.Run("infer", func(b *testing.B) {
		runEngine(b, sub, checker.NullDeref(), func() engines.Engine { return engines.NewInfer() })
	})
}

// BenchmarkFig1c measures the conventional engine's condition memory,
// reporting the retained bytes as a metric.
func BenchmarkFig1c(b *testing.B) {
	sub := compile(b, progen.Subjects[9], benchScale, driver.AbsintOff)
	for i := 0; i < b.N; i++ {
		eng := engines.NewPinpoint(engines.Plain)
		c := bench.Run(context.Background(), sub, checker.NullDeref(), eng, benchBudget)
		b.ReportMetric(c.CondMB, "cond-MB")
	}
}

// --- Ablations ---

func benchFusionOpts(b *testing.B, opts fusioncore.Options) {
	sub := compile(b, progen.Subjects[9], benchScale, driver.AbsintOff)
	runEngine(b, sub, checker.NullDeref(), func() engines.Engine {
		e := engines.NewFusion()
		e.Opts = opts
		return e
	})
}

// BenchmarkAblationQuickPath disables inter-procedural quick paths.
func BenchmarkAblationQuickPath(b *testing.B) {
	benchFusionOpts(b, fusioncore.Options{DisableQuickPaths: true})
}

// BenchmarkAblationLocalPreprocess disables per-function preprocessing.
func BenchmarkAblationLocalPreprocess(b *testing.B) {
	benchFusionOpts(b, fusioncore.Options{DisableLocalPreprocess: true})
}

// BenchmarkAblationDelayedCloning runs Algorithm 4 (eager cloning) instead
// of Algorithm 6.
func BenchmarkAblationDelayedCloning(b *testing.B) {
	benchFusionOpts(b, fusioncore.Options{Unoptimized: true})
}

// BenchmarkAblationSummaryCache compares the conventional engine with a
// cold cache per run against one reusing its cache across candidates
// (which is its normal mode; this isolates the caching benefit).
func BenchmarkAblationSummaryCache(b *testing.B) {
	sub := compile(b, progen.Subjects[9], benchScale, driver.AbsintOff)
	cands := sparse.NewEngine(sub.Graph).Run(checker.NullDeref())
	b.Run("shared-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engines.NewPinpoint(engines.Plain)
			eng.Check(context.Background(), sub.Graph, cands)
		}
	})
	b.Run("cold-per-candidate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range cands {
				eng := engines.NewPinpoint(engines.Plain)
				eng.Check(context.Background(), sub.Graph, []sparse.Candidate{c})
			}
		}
	})
}

// BenchmarkSparsePropagation isolates the shared path-enumeration phase.
func BenchmarkSparsePropagation(b *testing.B) {
	sub := compile(b, progen.Subjects[9], benchScale, driver.AbsintOff)
	for i := 0; i < b.N; i++ {
		sparse.NewEngine(sub.Graph).Run(checker.NullDeref())
	}
}

// BenchmarkAblationEnumeration compares the DFS path enumeration with the
// summary-based one (Algorithm 2's S_t) on a wide call graph.
func BenchmarkAblationEnumeration(b *testing.B) {
	sub := compile(b, progen.Subjects[9], benchScale, driver.AbsintOff)
	spec := checker.NullDeref()
	b.Run("dfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.NewEngine(sub.Graph).Run(spec)
		}
	})
	b.Run("summary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sparse.NewSummaryEngine(sub.Graph).Run(spec)
		}
	})
}

// BenchmarkAblationAbsint toggles the interval abstract-interpretation
// tier on the value-constrained checkers, reporting how many queries the
// tier decides (refuted or pruned before solving) and how many reach the
// bit-precise solver. The subject is compiled once per mode; its program
// builds the analysis in the first iteration and later ones reuse it.
func BenchmarkAblationAbsint(b *testing.B) {
	for _, mode := range []driver.AbsintMode{driver.AbsintOn, driver.AbsintOff} {
		sub := compile(b, progen.Subjects[9], benchScale, mode)
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var decided, solved, reports int
				for _, spec := range []*sparse.Spec{checker.DivByZero(), checker.IndexOOB()} {
					c := bench.Run(context.Background(), sub, spec, engines.NewFusion(), benchBudget)
					if c.Failed {
						b.Fatalf("engine run failed: %s", c.FailNote)
					}
					decided += c.AbsintDecided + c.AbsintPruned
					solved += c.SolverCalls
					reports += c.Reports
				}
				b.ReportMetric(float64(decided), "absint-decided")
				b.ReportMetric(float64(solved), "solver-calls")
				b.ReportMetric(float64(reports), "reports")
			}
		})
	}
}
