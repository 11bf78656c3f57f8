package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fusion/internal/checker"
	"fusion/internal/cond"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/fusioncore"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/smt"
	"fusion/internal/solver"
	"fusion/internal/sparse"
)

// Table1Program generates the paper's §2 cost-model scenario: a caller foo
// of size ~m that calls a callee bar of size ~n at k call sites, with the
// null dereference guarded by a condition over the call results.
func Table1Program(k, n, m int) string {
	var b strings.Builder
	b.WriteString("fun bar(x: int): int {\n")
	prev := "x"
	for i := 0; i < n; i++ {
		cur := fmt.Sprintf("s%d", i)
		op := []string{"+ 1", "* 3", "- 2", "^ 5"}[i%4]
		fmt.Fprintf(&b, "    var %s: int = %s %s;\n", cur, prev, op)
		prev = cur
	}
	fmt.Fprintf(&b, "    return %s;\n}\n\n", prev)

	b.WriteString("fun foo(a: int, bv: int) {\n")
	b.WriteString("    var p: ptr = null;\n")
	for i := 0; i < k; i++ {
		arg := "a"
		if i%2 == 1 {
			arg = "bv"
		}
		fmt.Fprintf(&b, "    var c%d: int = bar(%s + %d);\n", i, arg, i)
	}
	prev = "c0"
	for i := 0; i < m; i++ {
		cur := fmt.Sprintf("t%d", i)
		fmt.Fprintf(&b, "    var %s: int = %s + c%d;\n", cur, prev, i%k)
		prev = cur
	}
	last := "c0"
	if k > 1 {
		last = fmt.Sprintf("c%d", k-1)
	}
	fmt.Fprintf(&b, "    if (%s < %s) {\n        deref(p);\n    }\n}\n", prev, last)
	return b.String()
}

// Table1Row is one measured row of the cost-model experiment.
type Table1Row struct {
	K, N, M int
	// Conventional costs.
	ConvCondTreeSize int           // computing: the condition's tree size, O(kn+m)
	ConvTranslate    time.Duration //
	ConvSolve        time.Duration //
	ConvCachedBytes  int64         // caching: retained term bytes
	// Fusion costs.
	FusionSliceSize int           // the graph slice, O(n+m)
	FusionSolve     time.Duration //
	FusionClones    int
}

// Table1Measure runs both designs on the k/n/m scenario.
func Table1Measure(ctx context.Context, k, n, m int) (Table1Row, error) {
	row := Table1Row{K: k, N: n, M: m}
	p, err := driver.Compile(ctx, driver.Source{
		Name: fmt.Sprintf("table1-k%d", k), Text: Table1Program(k, n, m),
	}, driver.Options{Prelude: true})
	if err != nil {
		return row, err
	}
	g := p.Graph
	cands := sparse.NewEngine(g).RunContext(ctx, checker.NullDeref())
	if len(cands) != 1 {
		return row, fmt.Errorf("bench: table1: got %d candidates, want 1", len(cands))
	}
	paths := []pdg.Path{cands[0].Path}

	// Conventional: translate eagerly, measure, solve.
	eb := smt.NewBuilder()
	t0 := time.Now()
	sl := pdg.ComputeSlice(g, paths)
	tr := cond.Translate(eb, sl)
	row.ConvTranslate = time.Since(t0)
	row.ConvCondTreeSize = smt.TreeSize(tr.Phi, 1<<24)
	t1 := time.Now()
	solver.Solve(eb, tr.Phi, solver.Options{Ctx: ctx, Timeout: 10 * time.Second})
	row.ConvSolve = time.Since(t1)
	row.ConvCachedBytes = eb.EstimatedBytes()

	// Fusion.
	fb := smt.NewBuilder()
	t2 := time.Now()
	fr := fusioncore.Solve(ctx, fb, g, paths, fusioncore.Options{})
	row.FusionSolve = time.Since(t2)
	row.FusionSliceSize = fr.SliceSize
	row.FusionClones = fr.Clones
	return row, nil
}

// Table1 sweeps k (the number of call sites per callee) with fixed callee
// and caller sizes, empirically validating the cost model of the paper's
// Table 1: conventional costs grow with k, fused costs do not.
func Table1(ctx context.Context, opts Options) (string, error) {
	t := &Table{
		Title: "Table 1: cost of computing/solving/caching (n=callee, m=caller size)",
		Header: []string{"k", "n", "m", "Conv-CondSize", "Conv-Cache",
			"Conv-Time", "Fusion-Slice", "Fusion-Clones", "Fusion-Time"},
	}
	n, m := 30, 20
	for _, k := range []int{1, 2, 4, 8, 16} {
		row, err := Table1Measure(ctx, k, n, m)
		if err != nil {
			return "", err
		}
		t.AddRow(
			fmt.Sprintf("%d", row.K), fmt.Sprintf("%d", row.N), fmt.Sprintf("%d", row.M),
			fmt.Sprintf("%d", row.ConvCondTreeSize),
			fmb(mb(row.ConvCachedBytes)),
			fd(row.ConvTranslate+row.ConvSolve),
			fmt.Sprintf("%d", row.FusionSliceSize),
			fmt.Sprintf("%d", row.FusionClones),
			fd(row.FusionSolve),
		)
	}
	return t.String(), nil
}

// Ablations measures the contribution of each fused-design ingredient on a
// mid-sized subject: quick paths, local preprocessing, and delayed cloning
// (Algorithm 6 vs Algorithm 4) — the design choices DESIGN.md calls out.
func Ablations(ctx context.Context, opts Options) (string, error) {
	info := progen.Subjects[15] // wine
	if len(opts.Subjects) > 0 {
		info = opts.Subjects[0]
	}
	// The configurations are tier-free: compile without the absint tier.
	opts.Absint = driver.AbsintOff
	subs, err := opts.compileAll(ctx, []progen.Subject{info})
	if err != nil {
		return "", err
	}
	sub := subs[0]
	t := &Table{
		Title:  fmt.Sprintf("Ablations on %s (null exceptions)", info.Name),
		Header: []string{"Configuration", "Time", "Cond-Mem", "Reports"},
	}
	configs := []struct {
		name string
		opts fusioncore.Options
	}{
		{"fusion (full)", fusioncore.Options{}},
		{"fusion -quickpaths", fusioncore.Options{DisableQuickPaths: true}},
		{"fusion -localprep", fusioncore.Options{DisableLocalPreprocess: true}},
		{"fusion unoptimized (Alg. 4)", fusioncore.Options{Unoptimized: true}},
	}
	spec := checker.NullDeref()
	for _, cfg := range configs {
		eng := engines.NewFusion()
		eng.Opts = cfg.opts
		c := opts.run(ctx, sub, spec, eng)
		t.AddRow(cfg.name, fd(c.Time), fmb(c.CondMB), fmt.Sprintf("%d", c.Reports))
	}
	pc := opts.run(ctx, sub, spec, opts.pinpoint(engines.Plain))
	t.AddRow("pinpoint (conventional)", fd(pc.Time), fmb(pc.CondMB), fmt.Sprintf("%d", pc.Reports))
	return t.String(), nil
}

// Experiments maps experiment names to their drivers for the command-line
// harness.
var Experiments = map[string]func(context.Context, Options) (string, error){
	"table1":           Table1,
	"table2":           Table2,
	"cwe369":           CWE369,
	"table3":           Table3,
	"table4":           Table4,
	"table5":           Table5,
	"fig1c":            Fig1c,
	"fig10":            Fig10,
	"fig11":            Fig11,
	"ablations":        Ablations,
	"ablation-absint":  AblationAbsint,
	"ablation-session": AblationSession,
}

// ExperimentNames lists the available experiments in a stable order.
var ExperimentNames = []string{
	"fig1c", "table1", "table2", "table3", "fig10", "fig11", "table4", "table5", "cwe369", "ablations",
	"ablation-absint", "ablation-session",
}
