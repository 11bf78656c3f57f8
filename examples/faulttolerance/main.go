// Faulttolerance: demonstrate the fault-isolated pipeline. One analysis
// batch survives a forced mid-check crash (the crash becomes a structured
// unit failure on its verdict slot), and a one-decision SAT budget shows
// the degradation ladder refuting a guard at the cheaper zone/interval
// tiers instead of giving up. Both behaviors are byte-identical for any
// worker count.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/faultinject"
	"fusion/internal/sparse"
)

// containSrc has one feasible and one infeasible candidate.
const containSrc = `
fun f(a: int) {
    var p: ptr = null;
    if (a > 3) {
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

// budgetSrc guards the dereference with a*a == 1201²: satisfiable, but the
// solver needs genuine search decisions (neither the concrete probe nor
// unit propagation alone decides it), so a tiny per-candidate budget
// exhausts the exact tier.
const budgetSrc = `
fun g(a: int) {
    var p: ptr = null;
    if (a * a == 1442401) {
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

func compile(src string) (*driver.Program, []sparse.Candidate) {
	p, err := driver.Compile(context.Background(),
		driver.Source{Name: "example", Text: src}, driver.Options{Prelude: true})
	if err != nil {
		log.Fatal(err)
	}
	return p, sparse.NewEngine(p.Graph).Run(checker.NullDeref())
}

func main() {
	p, cands := compile(containSrc)
	fmt.Printf("%d null-deref candidates\n\n", len(cands))

	// 1. Panic containment: force a crash while checking the first
	// candidate. The batch still completes; only that slot carries a
	// structured failure with a stable stack digest.
	fmt.Println("--- forced crash in one unit ---")
	target := engines.UnitLabel(cands[0])
	if err := faultinject.ArmSpec("panic.check:" + target); err != nil {
		log.Fatal(err)
	}
	eng := engines.NewFusion()
	for _, v := range eng.Check(context.Background(), p.Graph, cands) {
		if v.Failure != nil {
			fmt.Printf("%-28s CRASHED at stage %s (digest %s)\n",
				engines.UnitLabel(v.Cand), v.Failure.Stage, v.Failure.Digest())
			continue
		}
		fmt.Printf("%-28s %s\n", engines.UnitLabel(v.Cand), v.Status)
	}
	faultinject.Reset()

	// 2. Degradation ladder: an already-expired per-candidate deadline
	// exhausts the bit-precise tier on every candidate. The contradictory
	// guard is still refuted by the cheap zone/interval tiers; the
	// satisfiable square-root guard stays an honest Unknown — each verdict
	// tagged with the tier that answered.
	fmt.Println("\n--- expired per-candidate deadline ---")
	p, cands = compile(budgetSrc)
	eng = engines.NewFusion()
	eng.Cfg.Budget = engines.Budget{Deadline: time.Nanosecond}
	for _, v := range eng.Check(context.Background(), p.Graph, cands) {
		tag := ""
		if v.Degraded {
			tag = fmt.Sprintf("  (degraded to %s tier)", v.Tier)
		}
		fmt.Printf("%-28s %s%s\n", engines.UnitLabel(v.Cand), v.Status, tag)
	}
	fmt.Println("\nThe ladder never claims Sat: a degraded verdict is either a sound")
	fmt.Println("abstract refutation or an honest Unknown.")
}
