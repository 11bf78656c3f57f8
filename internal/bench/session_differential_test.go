package bench

import (
	"context"
	"testing"
	"time"

	"fusion/internal/checker"
	"fusion/internal/cond"
	"fusion/internal/driver"
	"fusion/internal/pdg"
	"fusion/internal/progen"
	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
	"fusion/internal/sparse"
)

// TestSessionWarmVsColdCorpus is the differential acceptance test for the
// incremental sessions: every SMT query of the progen corpus is answered
// twice — once by a single warm Session reused across all of a subject's
// candidates (clauses, phases, and encodings accumulating), once by the
// cold one-shot solver on a fresh stack — and the verdicts must agree on
// every instance. The corpus must also actually exercise reuse, or the
// agreement is vacuous.
func TestSessionWarmVsColdCorpus(t *testing.T) {
	ctx := context.Background()
	subs, err := Options{Absint: driver.AbsintOff, Scale: 0.002, Workers: 4}.compileAll(ctx, progen.Subjects)
	if err != nil {
		t.Fatal(err)
	}
	specs := []*sparse.Spec{checker.NullDeref(), checker.DivByZero()}
	queries, undecided := 0, 0
	var hits, reusedClauses int64
	for _, sub := range subs {
		// One warm session per subject, shared across specs and candidates
		// — the same shape the sequential engines use.
		sess := solver.NewSession(solver.SessionConfig{})
		for _, spec := range specs {
			senge := sparse.NewEngine(sub.Graph)
			cands := senge.RunContext(ctx, spec)
			for i, c := range cands {
				opts := solver.Options{Ctx: ctx, Timeout: 10 * time.Second}

				sl := pdg.ComputeSlice(sub.Graph, []pdg.Path{c.Path})
				c.ApplyConstraint(sl, 0)
				sess.Begin()
				warm := sess.Solve(cond.Translate(sess.Builder(), sl).Phi, opts)
				sess.Finish()

				cb := smt.NewBuilder()
				csl := pdg.ComputeSlice(sub.Graph, []pdg.Path{c.Path})
				c.ApplyConstraint(csl, 0)
				cold := solver.Solve(cb, cond.Translate(cb, csl).Phi, opts)

				queries++
				hits += warm.CacheHits
				reusedClauses += warm.ReusedClauses
				if warm.Status == sat.Unknown || cold.Status == sat.Unknown {
					undecided++
					continue
				}
				if warm.Status != cold.Status {
					t.Errorf("%s/%s candidate %d: warm session says %v, cold solve says %v",
						sub.Info.Name, spec.Name, i, warm.Status, cold.Status)
				}
			}
		}
	}
	if queries == 0 {
		t.Fatal("corpus produced no SMT queries; the differential is vacuous")
	}
	if undecided > queries/2 {
		t.Errorf("%d of %d queries undecided; the differential barely ran", undecided, queries)
	}
	if hits == 0 {
		t.Error("warm sessions never reused a term encoding across the corpus")
	}
	t.Logf("%d queries, %d warm cache hits, %d reused learned clauses, %d undecided",
		queries, hits, reusedClauses, undecided)
}
