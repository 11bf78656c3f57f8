package bench

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/progen"
	"fusion/internal/sparse"
	"fusion/internal/telemetry"
)

// tinyOpts keeps experiment tests fast.
var tinyOpts = Options{
	Absint:   driver.AbsintOff,
	Scale:    0.01,
	Subjects: progen.Subjects[:3],
	Budget:   Budget{Time: 2 * time.Minute, CondBytes: 1 << 30},
}

func TestCompile(t *testing.T) {
	sub, err := Compile(context.Background(), progen.Subjects[0], 0.05, driver.AbsintOff)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Stats.Vertices == 0 || sub.GenLines == 0 {
		t.Error("empty compiled subject")
	}
}

func TestRunScoresGroundTruth(t *testing.T) {
	sub, err := Compile(context.Background(), progen.Subjects[1], 0.05, driver.AbsintOff)
	if err != nil {
		t.Fatal(err)
	}
	c := Run(context.Background(), sub, checker.NullDeref(), engines.NewFusion(), Budget{Time: time.Minute, CondBytes: 1 << 30})
	if c.Failed {
		t.Fatalf("fusion run failed: %s", c.FailNote)
	}
	want := len(sub.GT.ByChecker("null-deref"))
	if want == 0 {
		t.Fatal("subject has no injected null bugs")
	}
	if c.TP == 0 {
		t.Error("no true positives scored")
	}
	if c.FP != 0 {
		t.Errorf("fusion reported %d infeasible injected bugs", c.FP)
	}
}

func TestTableFormatter(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	s := tb.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "333") {
		t.Errorf("bad rendering:\n%s", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines, want 5:\n%s", len(lines), s)
	}
}

func TestTable1Monotone(t *testing.T) {
	r2, err := Table1Measure(context.Background(), 2, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Table1Measure(context.Background(), 8, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Conventional condition size grows with k; the fused slice does not
	// grow proportionally (it is O(n+m)).
	if r8.ConvCondTreeSize <= r2.ConvCondTreeSize {
		t.Errorf("conventional size must grow with k: k=2 %d, k=8 %d",
			r2.ConvCondTreeSize, r8.ConvCondTreeSize)
	}
	growth := float64(r8.FusionSliceSize) / float64(r2.FusionSliceSize)
	if growth > 2 {
		t.Errorf("fused slice grew %.1fx from k=2 to k=8; should stay near O(n+m)", growth)
	}
	if r8.FusionClones > r2.FusionClones+8 {
		t.Errorf("fusion clones grew with k: %d -> %d", r2.FusionClones, r8.FusionClones)
	}
}

func TestExperimentDriversRun(t *testing.T) {
	for _, name := range []string{"table2", "table1", "ablations"} {
		fn := Experiments[name]
		if fn == nil {
			t.Fatalf("missing experiment %s", name)
		}
		opts := tinyOpts
		if name == "ablations" {
			opts.Subjects = progen.Subjects[:1]
		}
		out, err := fn(context.Background(), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) == 0 {
			t.Errorf("%s: empty output", name)
		}
	}
}

func TestTable3SmallSubjects(t *testing.T) {
	out, err := Table3(context.Background(), Options{Absint: driver.AbsintOff, Scale: 0.05, Subjects: progen.Subjects[:2],
		Budget: Budget{Time: 2 * time.Minute, CondBytes: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mcf") || !strings.Contains(out, "bzip2") {
		t.Errorf("missing subjects:\n%s", out)
	}
}

func TestFig11SmallSubjects(t *testing.T) {
	out, err := Fig11(context.Background(), Options{Absint: driver.AbsintOff, Scale: 0.05, Subjects: progen.Subjects[:2]})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SMT instances") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestExperimentNamesComplete(t *testing.T) {
	for _, n := range ExperimentNames {
		if Experiments[n] == nil {
			t.Errorf("experiment %s listed but not registered", n)
		}
	}
	if len(ExperimentNames) != len(Experiments) {
		t.Errorf("name list (%d) and registry (%d) out of sync",
			len(ExperimentNames), len(Experiments))
	}
}

func TestLargeSubjectDriversRunSmall(t *testing.T) {
	// The large-subject experiments accept a subject override; run them on
	// tiny subjects to exercise the drivers.
	opts := Options{Absint: driver.AbsintOff, Scale: 0.02, Subjects: progen.Subjects[:2],
		Budget: Budget{Time: 2 * time.Minute, CondBytes: 1 << 30}}
	for _, name := range []string{"fig1c", "table5", "cwe369", "table4"} {
		out, err := Experiments[name](context.Background(), opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out, "mcf") {
			t.Errorf("%s: missing subject in output:\n%s", name, out)
		}
	}
}

func TestDumpSMT2(t *testing.T) {
	dir := t.TempDir()
	n, err := DumpSMT2(context.Background(), Options{Absint: driver.AbsintOff, Scale: 0.05, Subjects: progen.Subjects[:1]}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no instances dumped")
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != n {
		t.Fatalf("expected %d files, got %d (%v)", n, len(entries), err)
	}
	data, err := os.ReadFile(dir + "/" + entries[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "(check-sat)") {
		t.Error("missing check-sat in dumped instance")
	}
}

// TestAblationAbsintSoundAndEffective is the acceptance check for the
// interval tier on the four industrial-sized subjects: with the tier on,
// the report set (and its scoring) is identical, the tier decides a
// nonzero number of queries, and strictly fewer candidates reach the
// bit-precise solver.
func TestAblationAbsintSoundAndEffective(t *testing.T) {
	budget := Budget{Time: 2 * time.Minute, CondBytes: 1 << 30}
	for _, name := range []string{"ffmpeg", "v8", "mysql", "wine"} {
		info, err := progen.SubjectByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := Compile(context.Background(), info, 0.001, driver.AbsintOff)
		if err != nil {
			t.Fatal(err)
		}
		subOn, err := Compile(context.Background(), info, 0.001, driver.AbsintOn)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []*sparse.Spec{checker.DivByZero(), checker.IndexOOB()} {
			off := Run(context.Background(), sub, spec, engines.NewFusion(), budget)
			onc := Run(context.Background(), subOn, spec, engines.NewFusion(), budget)
			if off.Failed || onc.Failed {
				t.Fatalf("%s/%s: run failed: %s%s", name, spec.Name, off.FailNote, onc.FailNote)
			}
			if onc.Reports != off.Reports || onc.TP != off.TP || onc.FP != off.FP {
				t.Errorf("%s/%s: reports differ: off %d (TP %d, FP %d), on %d (TP %d, FP %d)",
					name, spec.Name, off.Reports, off.TP, off.FP, onc.Reports, onc.TP, onc.FP)
			}
			if onc.AbsintDecided+onc.AbsintPruned == 0 {
				t.Errorf("%s/%s: interval tier never fired", name, spec.Name)
			}
			if onc.SolverCalls >= off.SolverCalls {
				t.Errorf("%s/%s: solver calls not reduced: off %d, on %d",
					name, spec.Name, off.SolverCalls, onc.SolverCalls)
			}
			if off.AbsintDecided != 0 || off.AbsintPruned != 0 {
				t.Errorf("%s/%s: tier fired while disabled", name, spec.Name)
			}
		}
	}
}

// TestSimplifiedCountersDeterministic checks that the pre-simplification
// statistics (and the verdict counts they ride with) are identical across
// worker counts: summaries are built in deterministic topological order
// per query, so parallel runs must be byte-for-byte reproducible.
func TestSimplifiedCountersDeterministic(t *testing.T) {
	sub, err := Compile(context.Background(), progen.Subjects[1], 0.05, driver.AbsintOn)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) Cost {
		return RunWorkers(context.Background(), sub, checker.DivByZero(), engines.NewFusion(),
			Budget{Time: time.Minute, CondBytes: 1 << 30}, workers)
	}
	c1, c8 := run(1), run(8)
	if c1.Simplified == 0 {
		t.Fatal("subject produced no folded vertices; the determinism check is vacuous")
	}
	if c1.Simplified != c8.Simplified || c1.PrunedGuards != c8.PrunedGuards {
		t.Errorf("simplification counters differ across workers: 1 -> (%d, %d), 8 -> (%d, %d)",
			c1.Simplified, c1.PrunedGuards, c8.Simplified, c8.PrunedGuards)
	}
	if c1.Reports != c8.Reports || c1.AbsintDecided != c8.AbsintDecided {
		t.Errorf("verdicts differ across workers: 1 -> (%d, %d), 8 -> (%d, %d)",
			c1.Reports, c1.AbsintDecided, c8.Reports, c8.AbsintDecided)
	}
}

// TestNoSimplifyAblationAgrees checks the nosimplify ablation changes only
// the cost counters, never a verdict: same reports, same refutations, zero
// folds.
func TestNoSimplifyAblationAgrees(t *testing.T) {
	run := func(mode driver.AbsintMode) Cost {
		sub, err := Compile(context.Background(), progen.Subjects[1], 0.05, mode)
		if err != nil {
			t.Fatal(err)
		}
		return Run(context.Background(), sub, checker.DivByZero(), engines.NewFusion(),
			Budget{Time: time.Minute, CondBytes: 1 << 30})
	}
	on, off := run(driver.AbsintOn), run(driver.AbsintNoSimplify)
	if off.Simplified != 0 || off.PrunedGuards != 0 {
		t.Errorf("nosimplify still folded: (%d, %d)", off.Simplified, off.PrunedGuards)
	}
	if on.Simplified == 0 {
		t.Error("default mode folded nothing on a subject with a bit-level query")
	}
	if on.Reports != off.Reports || on.TP != off.TP || on.FP != off.FP ||
		on.Unknown != off.Unknown || on.AbsintDecided != off.AbsintDecided {
		t.Errorf("ablation changed verdicts: on=%+v off=%+v", on, off)
	}
}

// TestTable3BuildsAbsintOncePerSubject: the absint tier is built by the
// subject's program, once, inside the first fused run — so a Table 3
// run with a recorder carries exactly one compile/absint span per
// subject, and the conventional engine never builds one.
func TestTable3BuildsAbsintOncePerSubject(t *testing.T) {
	rec := telemetry.New()
	subs := progen.Subjects[:3]
	if _, err := Table3(context.Background(), Options{Absint: driver.AbsintOn, Scale: 0.01, Subjects: subs,
		Budget: Budget{Time: 2 * time.Minute, CondBytes: 1 << 30}, Telemetry: rec}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := rec.WriteTrace(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name, Cat, Ph string
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	builds := 0
	for _, e := range trace.TraceEvents {
		if e.Ph == "X" && e.Cat == "compile" && e.Name == "absint" {
			builds++
		}
	}
	if builds != len(subs) {
		t.Errorf("%d compile/absint spans for %d subjects, want one each", builds, len(subs))
	}
}
