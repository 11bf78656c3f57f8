package engines

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"fusion/internal/faultinject"
	"fusion/internal/sat"
)

// resHardSrc guards its deref with a*a == 1201²: satisfiable, but the
// concrete probe cannot guess a square root and unit propagation cannot
// build one, so the query reliably enters the CDCL search loop — which
// is where stall.solve wedges and where heartbeats are published.
const resHardSrc = `
fun f(a: int) {
    var p: ptr = null;
    if (a * a == 1442401) {
        deref(p);
    }
}
`

// waitGoroutines polls until the goroutine count settles back to the
// baseline, failing the test if orphans are still alive after 5s.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestWatchdogAbandonsStalledSolve wedges the solve with stall.solve:
// the search blocks without heartbeat progress, and the watchdog must
// hard-abandon the unit roughly Grace past its deadline instead of
// waiting out the full stall. The orphaned goroutine unwinds once the
// attempt's context is cancelled.
func TestWatchdogAbandonsStalledSolve(t *testing.T) {
	g := resGraph(t, resHardSrc)
	cands := resCands(t, g, 1)
	if err := faultinject.ArmSpec("stall.solve"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	defer faultinject.SetStallCap(faultinject.SetStallCap(10 * time.Second))
	before := runtime.NumGoroutine()

	e := NewFusion()
	e.Cfg.Budget.Deadline = 150 * time.Millisecond
	e.Cfg.WatchdogGrace = 60 * time.Millisecond
	start := time.Now()
	vs := e.Check(context.Background(), g, cands)
	elapsed := time.Since(start)

	if len(vs) != 1 {
		t.Fatalf("%d verdicts", len(vs))
	}
	v := vs[0]
	if !v.Abandoned || v.Failure != nil {
		t.Fatalf("stalled unit not abandoned: %+v", v)
	}
	if v.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 (no retries configured)", v.Attempts)
	}
	if !v.Degraded || v.Status == sat.Sat {
		t.Errorf("abandoned unit must fall to the degradation ladder: %+v", v)
	}
	// Deadline 150ms + grace 60ms: abandonment must land well before the
	// 10s stall cap would have released the solve on its own.
	if elapsed > 5*time.Second {
		t.Errorf("abandonment took %v, want deadline+grace order", elapsed)
	}
	waitGoroutines(t, before)
}

// TestRetryRecoversInjectedSolvePanic arms panic.solve:1 for one unit:
// its first attempt crashes, the retry on a fresh cold session succeeds,
// and the final verdict matches an un-faulted run — identically at
// workers 1 and 8.
func TestRetryRecoversInjectedSolvePanic(t *testing.T) {
	g := resGraph(t, resMixedSrc)
	cands := resCands(t, g, 2)
	target := UnitLabel(cands[0])

	type row struct {
		st       sat.Status
		tier     Tier
		degraded bool
	}
	baseline := func() []row {
		e := NewFusion()
		var rows []row
		for _, v := range e.Check(context.Background(), g, cands) {
			rows = append(rows, row{v.Status, v.Tier, v.Degraded})
		}
		return rows
	}()

	if err := faultinject.ArmSpec("panic.solve:1:" + target); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	for _, workers := range []int{1, 8} {
		e := NewFusion()
		e.Cfg.Retries = 1
		e.Parallel = workers
		vs := e.Check(context.Background(), g, cands)
		for i, v := range vs {
			if v.Failure != nil || v.Abandoned {
				t.Fatalf("workers=%d slot %d: retry did not recover: %+v", workers, i, v)
			}
			wantAttempts := 1
			if UnitLabel(cands[i]) == target {
				wantAttempts = 2
			}
			if v.Attempts != wantAttempts {
				t.Errorf("workers=%d slot %d: Attempts = %d, want %d", workers, i, v.Attempts, wantAttempts)
			}
			if got := (row{v.Status, v.Tier, v.Degraded}); got != baseline[i] {
				t.Errorf("workers=%d slot %d: recovered verdict %+v differs from baseline %+v", workers, i, got, baseline[i])
			}
		}
	}
}

// TestRepeatedPoisoningExhaustsLadder arms a panic that fires on every
// attempt of one unit: the full ladder (warm, cold, one-shot) is
// climbed and exhausted, yielding exactly one UnitFailure that records
// the attempt count — and no goroutine outlives the batch.
func TestRepeatedPoisoningExhaustsLadder(t *testing.T) {
	g := resGraph(t, resMixedSrc)
	cands := resCands(t, g, 2)
	target := UnitLabel(cands[0])
	if err := faultinject.ArmSpec("panic.check:" + target); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	before := runtime.NumGoroutine()

	mk := map[string]func() Engine{
		"fusion":   func() Engine { return NewFusion() },
		"pinpoint": func() Engine { return NewPinpoint(Plain) },
	}
	for name, fresh := range mk {
		for _, workers := range []int{1, 8} {
			e := fresh()
			SetParallel(e, workers)
			e.Settings().Cfg.Retries = 2
			vs := e.Check(context.Background(), g, cands)
			failures := 0
			for i, v := range vs {
				if UnitLabel(cands[i]) != target {
					if v.Failure != nil {
						t.Errorf("%s workers=%d: healthy unit failed: %+v", name, workers, v)
					}
					continue
				}
				if v.Failure == nil {
					t.Fatalf("%s workers=%d: poisoned unit has no failure: %+v", name, workers, v)
				}
				failures++
				if v.Failure.Attempts != 3 || v.Attempts != 3 {
					t.Errorf("%s workers=%d: attempts = %d/%d, want 3/3 (retries=2)",
						name, workers, v.Failure.Attempts, v.Attempts)
				}
				if v.Status == sat.Sat {
					t.Errorf("%s workers=%d: exhausted ladder claimed Sat", name, workers)
				}
			}
			if failures != 1 {
				t.Errorf("%s workers=%d: %d failed verdicts, want exactly 1", name, workers, failures)
			}
		}
	}
	waitGoroutines(t, before)
}

// TestSupervisionConfigNeverChangesVerdicts: with no fault armed, every
// combination of worker count, retry budget, and watchdog grace must
// produce byte-identical verdicts — clean first attempts never re-run,
// so the supervision machinery is invisible until something breaks.
func TestSupervisionConfigNeverChangesVerdicts(t *testing.T) {
	g := resGraph(t, resMixedSrc)
	cands := resCands(t, g, 2)
	var base string
	for _, workers := range []int{1, 8} {
		for _, retries := range []int{0, 2} {
			for _, grace := range []time.Duration{0, 20 * time.Millisecond} {
				e := NewFusion()
				e.Parallel = workers
				e.Cfg.Retries, e.Cfg.WatchdogGrace = retries, grace
				var rows string
				for _, v := range e.Check(context.Background(), g, cands) {
					if v.Failure != nil {
						t.Fatalf("workers=%d retries=%d grace=%v: unexpected failure %v",
							workers, retries, grace, v.Failure)
					}
					rows += fmt.Sprintf("%s %s degraded=%v attempts=%d abandoned=%v\n",
						v.Status, v.Tier, v.Degraded, v.Attempts, v.Abandoned)
				}
				if base == "" {
					base = rows
				} else if rows != base {
					t.Errorf("workers=%d retries=%d grace=%v: verdicts differ:\n%s\nvs baseline\n%s",
						workers, retries, grace, rows, base)
				}
			}
		}
	}
}

// TestLadderOutcomesPinned pins what the shared retry ladder makes of
// injected crashes, for both solving engines, at -retries 2: which
// attempt recovers, the final Tier and Status, and the failure's attempt
// count. The expected rows are the outcomes the engines' separate
// ladders produced before they were merged. The failure digest hashes
// the source positions between the fault and the containment boundary,
// so it is checked for what it promises instead: the same crash has the
// same digest at any worker count and any retry height.
func TestLadderOutcomesPinned(t *testing.T) {
	g := resGraph(t, resMixedSrc)
	cands := resCands(t, g, 2)
	target := UnitLabel(cands[0])
	type outcome struct {
		status           sat.Status
		tier             Tier
		attempts, failed int // failed: the UnitFailure's Attempts, 0 without one
		degraded         bool
	}
	crashed := outcome{sat.Unknown, TierUnknown, 3, 3, true}
	want := map[string]outcome{
		"panic.check":   crashed,
		"panic.solve:1": {sat.Sat, TierExact, 2, 0, false},
		"panic.solve:2": {sat.Sat, TierExact, 3, 0, false},
		"panic.solve:3": crashed,
	}
	healthy := outcome{sat.Unsat, TierExact, 1, 0, false}
	mk := map[string]func() Engine{
		"fusion":   func() Engine { return NewFusion() },
		"pinpoint": func() Engine { return NewPinpoint(Plain) },
	}
	run := func(name, spec string, workers, retries int) []Verdict {
		t.Helper()
		if err := faultinject.ArmSpec(spec + ":" + target); err != nil {
			t.Fatal(err)
		}
		defer faultinject.Reset()
		e := mk[name]()
		e.Settings().Parallel = workers
		e.Settings().Cfg.Retries = retries
		return e.Check(context.Background(), g, cands)
	}
	for name := range mk {
		for spec, w := range want {
			digests := map[string]bool{}
			for _, workers := range []int{1, 8} {
				for i, v := range run(name, spec, workers, 2) {
					exp := healthy
					if i == 0 {
						exp = w
					}
					got := outcome{v.Status, v.Tier, v.Attempts, 0, v.Degraded}
					if v.Failure != nil {
						got.failed = v.Failure.Attempts
						digests[v.Failure.Digest()] = true
					}
					if got != exp {
						t.Errorf("%s %s workers=%d slot %d: got %+v, want %+v", name, spec, workers, i, got, exp)
					}
				}
			}
			if w.failed == 0 {
				continue
			}
			// A single attempt fails at the same site as the ladder's last.
			if v := run(name, spec, 1, 0)[0]; v.Failure != nil {
				digests[v.Failure.Digest()] = true
			} else {
				t.Errorf("%s %s retries=0: no failure", name, spec)
			}
			if len(digests) != 1 {
				t.Errorf("%s %s: digests vary across workers and retries: %v", name, spec, digests)
			}
		}
	}
}

// TestPinpointWatchdogGraceRunsInline: Pinpoint's attempts hold the
// summary-cache lock, so it never runs them under the watchdog, whatever
// WatchdogGrace says. cancel.delay holds each attempt open for 50ms while
// every goroutine's stack is sampled: a supervised attempt runs on a
// goroutine the watchdog starts. Fusion, which does arm the watchdog, is
// the control that shows the sampling can see one. Neither engine may
// leave a goroutine behind.
func TestPinpointWatchdogGraceRunsInline(t *testing.T) {
	g := resGraph(t, resMixedSrc)
	cands := resCands(t, g, 2)
	if err := faultinject.ArmSpec("cancel.delay"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Reset()
	supervised := func(e Engine) (bool, []Verdict) {
		e.Settings().Cfg.WatchdogGrace = time.Second
		before := runtime.NumGoroutine()
		done := make(chan []Verdict, 1)
		go func() { done <- e.Check(context.Background(), g, cands) }()
		buf := make([]byte, 1<<20)
		seen := false
		for {
			select {
			case vs := <-done:
				waitGoroutines(t, before)
				return seen, vs
			default:
				n := runtime.Stack(buf, true)
				seen = seen || bytes.Contains(buf[:n], []byte("created by fusion/internal/driver.Supervise"))
				time.Sleep(time.Millisecond)
			}
		}
	}
	seen, vs := supervised(NewPinpoint(Plain))
	if seen {
		t.Error("pinpoint ran an attempt on a watchdog-supervised goroutine")
	}
	for i, v := range vs {
		if v.Attempts != 1 || v.Abandoned || v.Failure != nil {
			t.Errorf("pinpoint slot %d: %+v", i, v)
		}
	}
	if seen, _ := supervised(NewFusion()); !seen {
		t.Error("fusion's supervised attempts were not observed; the check is vacuous")
	}
}
