package engines

import (
	"context"
	"regexp"
	"testing"
	"time"

	"fusion/internal/absint"
	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/faultinject"
	"fusion/internal/pdg"
	"fusion/internal/sat"
	"fusion/internal/sparse"
)

// resInfeasibleSrc has exactly one null-deref candidate, guarded by a
// contradiction the zone/interval tiers can refute.
const resInfeasibleSrc = `
fun f(a: int) {
    var q: ptr = null;
    if (a > 10) {
        if (a < 5) {
            deref(q);
        }
    }
}
`

// resMixedSrc has one feasible and one infeasible candidate.
const resMixedSrc = `
fun scale(x: int): int {
    var y: int = x * 2;
    return y;
}
fun f(a: int, b: int) {
    var p: ptr = null;
    var c: int = scale(a);
    var d: int = scale(b);
    if (c < d) {
        deref(p);
    }
    var q: ptr = null;
    if (a > 10) {
        if (a < 5) {
            deref(q);
        }
    }
}
`

func resGraph(t *testing.T, src string) *pdg.Graph {
	t.Helper()
	p, err := driver.Compile(context.Background(), driver.Source{Name: "res", Text: src},
		driver.Options{Prelude: true})
	if err != nil {
		t.Fatal(err)
	}
	return p.Graph
}

func resCands(t *testing.T, g *pdg.Graph, want int) []sparse.Candidate {
	t.Helper()
	cands := sparse.NewEngine(g).Run(checker.NullDeref())
	if len(cands) != want {
		t.Fatalf("got %d candidates, want %d", len(cands), want)
	}
	return cands
}

func TestUnitLabelFormat(t *testing.T) {
	g := resGraph(t, resInfeasibleSrc)
	c := resCands(t, g, 1)[0]
	label := UnitLabel(c)
	if ok, _ := regexp.MatchString(`^null-deref \d+:\d+<-\d+:\d+#\d+$`, label); !ok {
		t.Errorf("unexpected label %q", label)
	}
	if UnitLabel(c) != label {
		t.Error("label must be stable")
	}
}

func TestTierOf(t *testing.T) {
	if got := tierOf(sat.Unknown, true, true, true); got != TierUnknown {
		t.Errorf("undecided: %v", got)
	}
	if got := tierOf(sat.Unsat, true, false, true); got != TierRelational {
		t.Errorf("zone: %v", got)
	}
	if got := tierOf(sat.Unsat, true, true, false); got != TierStride {
		t.Errorf("stride: %v", got)
	}
	if got := tierOf(sat.Unsat, true, false, false); got != TierInterval {
		t.Errorf("interval: %v", got)
	}
	if got := tierOf(sat.Sat, false, false, false); got != TierExact {
		t.Errorf("exact: %v", got)
	}
	for tier, want := range map[Tier]string{
		TierUnknown: "unknown", TierInterval: "interval",
		TierStride:     "stride",
		TierRelational: "relational", TierExact: "exact",
	} {
		if tier.String() != want {
			t.Errorf("Tier(%d).String() = %q, want %q", tier, tier.String(), want)
		}
	}
}

func TestSetBudget(t *testing.T) {
	b := Budget{Steps: 7, Conflicts: 9, Deadline: time.Second, MaxHeapDelta: 11}
	if b.IsZero() || (Budget{}).IsZero() == false {
		t.Fatal("IsZero misreports")
	}
	f, p := NewFusion(), NewPinpoint(Plain)
	for _, e := range []Engine{f, p, NewInfer()} {
		e.Settings().Cfg.Budget = b // Infer has no bit-precise tier and ignores it
	}
	if f.Cfg.Budget != b || p.Cfg.Budget != b {
		t.Errorf("budget not wired: fusion %+v pinpoint %+v", f.Cfg.Budget, p.Cfg.Budget)
	}
}

func TestDegradeVerdictLadder(t *testing.T) {
	g := resGraph(t, resInfeasibleSrc)
	c := resCands(t, g, 1)[0]
	an := absint.Analyze(g)

	v := Verdict{Cand: c, Status: sat.Unknown}
	degradeVerdict(context.Background(), an, g, c, &v)
	if !v.Degraded {
		t.Fatal("ladder must tag the verdict degraded")
	}
	if v.Status != sat.Unsat {
		t.Fatalf("contradictory guard must be refuted by the cheap tiers, got %s", v.Status)
	}
	if v.Tier != TierRelational && v.Tier != TierInterval {
		t.Errorf("degraded refutation must carry an abstract tier, got %s", v.Tier)
	}

	// Without an analysis the verdict stays honest Unknown.
	v2 := Verdict{Cand: c, Status: sat.Unknown}
	degradeVerdict(context.Background(), nil, g, c, &v2)
	if !v2.Degraded || v2.Status != sat.Unknown || v2.Tier != TierUnknown {
		t.Errorf("nil analysis: %+v", v2)
	}

	// A cancelled context skips the re-check entirely.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v3 := Verdict{Cand: c, Status: sat.Unknown}
	degradeVerdict(ctx, an, g, c, &v3)
	if !v3.Degraded || v3.Status != sat.Unknown {
		t.Errorf("cancelled ctx: %+v", v3)
	}
}

// TestDeadlineExhaustionDegrades drives the full ladder end to end: a
// per-candidate deadline that expires immediately exhausts the
// bit-precise tier, and the fallback refuters still decide the
// contradictory guard — identically at any worker count.
func TestDeadlineExhaustionDegrades(t *testing.T) {
	g := resGraph(t, resMixedSrc)
	cands := resCands(t, g, 2)
	type row struct {
		st       sat.Status
		tier     Tier
		degraded bool
	}
	runs := map[int][]row{}
	for _, workers := range []int{1, 8} {
		e := NewFusion()
		e.Cfg.Budget.Deadline = time.Nanosecond
		e.Parallel = workers
		vs := e.Check(context.Background(), g, cands)
		var rows []row
		for _, v := range vs {
			if v.Failure != nil {
				t.Fatalf("workers=%d: unexpected failure %v", workers, v.Failure)
			}
			if !v.Degraded {
				t.Errorf("workers=%d: expired deadline must degrade every candidate: %+v", workers, v)
			}
			rows = append(rows, row{v.Status, v.Tier, v.Degraded})
		}
		runs[workers] = rows
	}
	for i := range runs[1] {
		if runs[1][i] != runs[8][i] {
			t.Errorf("slot %d: workers=1 %+v vs workers=8 %+v", i, runs[1][i], runs[8][i])
		}
	}
	// The contradictory candidate is refuted by a cheap tier even though
	// the exact tier never ran; the feasible one stays Unknown (the
	// ladder never claims Sat).
	unsat, unknown := 0, 0
	for _, r := range runs[1] {
		switch r.st {
		case sat.Unsat:
			unsat++
			if r.tier != TierRelational && r.tier != TierInterval {
				t.Errorf("degraded refutation at tier %s", r.tier)
			}
		case sat.Unknown:
			unknown++
		case sat.Sat:
			t.Error("ladder must never report Sat")
		}
	}
	if unsat != 1 || unknown != 1 {
		t.Errorf("got %d unsat / %d unknown, want 1 / 1", unsat, unknown)
	}
}

// TestInjectedPanicContained arms a forced panic for one specific unit
// and checks the batch completes with only that slot failed — with the
// same digest and identical healthy verdicts at workers 1 and 8.
func TestInjectedPanicContained(t *testing.T) {
	g := resGraph(t, resMixedSrc)
	cands := resCands(t, g, 2)
	target := UnitLabel(cands[0])
	if err := faultinject.ArmSpec("panic.check:" + target); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	mk := map[string]func() Engine{
		"fusion":   func() Engine { return NewFusion() },
		"pinpoint": func() Engine { return NewPinpoint(Plain) },
		"infer":    func() Engine { return NewInfer() },
	}
	for name, fresh := range mk {
		var base []Verdict
		var baseDigest string
		for _, workers := range []int{1, 8} {
			e := fresh()
			SetParallel(e, workers)
			vs := e.Check(context.Background(), g, cands)
			if len(vs) != len(cands) {
				t.Fatalf("%s workers=%d: %d verdicts for %d candidates", name, workers, len(vs), len(cands))
			}
			for i, v := range vs {
				hit := UnitLabel(cands[i]) == target
				if hit != (v.Failure != nil) {
					t.Fatalf("%s workers=%d slot %d: failure mismatch (want failed=%v): %+v", name, workers, i, hit, v.Failure)
				}
				if v.Failure != nil {
					if v.Status != sat.Unknown || v.Failure.Unit != target || v.Failure.Stage != "check" {
						t.Errorf("%s workers=%d: bad failed verdict: %+v", name, workers, v)
					}
				}
			}
			if base == nil {
				base = vs
				baseDigest = vs[0].Failure.Digest()
				continue
			}
			if d := vs[0].Failure.Digest(); d != baseDigest {
				t.Errorf("%s: digest differs across worker counts: %s vs %s", name, d, baseDigest)
			}
			for i := range vs {
				if vs[i].Status != base[i].Status || vs[i].Tier != base[i].Tier {
					t.Errorf("%s: slot %d differs across worker counts: %+v vs %+v", name, i, vs[i], base[i])
				}
			}
		}
	}
}

// TestSolverExhaustInjection arms artificial step exhaustion for every
// unit: the real budget machinery runs out on the first decision and the
// degradation ladder takes over. The guard a*a == 1201² is satisfiable
// but needs genuine CDCL decisions: the 32-try concrete probe does not
// guess a square root and unit propagation alone cannot build one, so
// the injected one-decision budget reliably fires.
func TestSolverExhaustInjection(t *testing.T) {
	g := resGraph(t, `
fun f(a: int) {
    var p: ptr = null;
    if (a * a == 1442401) {
        deref(p);
    }
}
`)
	cands := resCands(t, g, 1)
	if err := faultinject.ArmSpec("solver.exhaust"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()

	for _, workers := range []int{1, 8} {
		e := NewFusion()
		e.Parallel = workers
		vs := e.Check(context.Background(), g, cands)
		degraded := 0
		for _, v := range vs {
			if v.Failure != nil {
				t.Fatalf("workers=%d: exhaustion must degrade, not fail: %v", workers, v.Failure)
			}
			if v.Degraded {
				degraded++
				if v.Status == sat.Sat {
					t.Error("degraded verdicts must never claim Sat")
				}
			}
		}
		if degraded == 0 {
			t.Errorf("workers=%d: no verdict degraded under injected exhaustion", workers)
		}
	}
}
