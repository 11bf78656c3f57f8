package engines

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fusion/internal/absint"
	"fusion/internal/driver"
	"fusion/internal/failure"
	"fusion/internal/pdg"
	"fusion/internal/sat"
	"fusion/internal/sparse"
	"fusion/internal/telemetry"
)

// Tier labels the precision of the procedure that produced a verdict,
// in ascending precision order. The zero value is TierUnknown so that
// synthesized verdicts (cancelled or failed slots) carry an honest tag.
type Tier int

// Precision tiers.
const (
	// TierUnknown: nothing decided feasibility — the candidate is
	// undecided, or the engine never consults the tiered stack (Infer).
	TierUnknown Tier = iota
	// TierInterval: the interval abstract domain refuted the query.
	TierInterval
	// TierStride: the congruence (stride) domain, in reduced product
	// with intervals, refuted it — cheaper than the zone tier, more
	// precise than intervals alone.
	TierStride
	// TierRelational: the zone (difference-bound) domain refuted it.
	TierRelational
	// TierExact: the bit-precise solve (preprocessing, probe, or CDCL
	// search) decided it.
	TierExact
)

func (t Tier) String() string {
	switch t {
	case TierInterval:
		return "interval"
	case TierStride:
		return "stride"
	case TierRelational:
		return "relational"
	case TierExact:
		return "exact"
	default:
		return "unknown"
	}
}

// Budget bounds the per-candidate work of the bit-precise tier. Unlike
// a wall-clock timeout, Steps, Conflicts, and MaxHeapDelta are exact
// counts, so exhaustion — and therefore the degradation ladder — is
// deterministic across machines and worker counts. Zero fields are
// unbounded.
type Budget struct {
	// Steps bounds SAT branching decisions per candidate.
	Steps int64
	// Conflicts bounds SAT conflicts per candidate.
	Conflicts int64
	// Deadline bounds each candidate's whole check by wall clock.
	Deadline time.Duration
	// MaxHeapDelta bounds the bytes of new formula a candidate's
	// residual construction may allocate in the shared builder.
	MaxHeapDelta int64
}

// IsZero reports an entirely unbounded budget.
func (b Budget) IsZero() bool { return b == Budget{} }

// UnitLabel names one candidate for failure reports and fault-injection
// matching: checker name, sink position, source position, and argument
// index, all stable under enumeration order and worker count.
func UnitLabel(c sparse.Candidate) string {
	name := ""
	if c.Spec != nil {
		name = c.Spec.Name
	}
	return fmt.Sprintf("%s %d:%d<-%d:%d#%d", name,
		c.Sink.Pos.Line, c.Sink.Pos.Col,
		c.Source.Pos.Line, c.Source.Pos.Col, c.ArgIdx)
}

// tierOf tags a bit-precise tier outcome: a decided status is Exact
// unless the abstract tier short-circuited the solve.
func tierOf(st sat.Status, byAbsint, byStride, byZone bool) Tier {
	switch {
	case st == sat.Unknown:
		return TierUnknown
	case byZone:
		return TierRelational
	case byStride:
		return TierStride
	case byAbsint:
		return TierInterval
	default:
		return TierExact
	}
}

// attachFailures converts contained per-candidate crashes into verdict
// slots: the failed candidate keeps its input slot with an Unknown
// status and the failure attached, so one crash degrades one unit and
// the batch stays index-stable.
func attachFailures(vs []Verdict, fails []*failure.UnitFailure, cands []sparse.Candidate) {
	for i, f := range fails {
		if f == nil {
			continue
		}
		f.Unit, f.Stage = UnitLabel(cands[i]), "check"
		vs[i] = Verdict{Cand: cands[i], Status: sat.Unknown, Failure: f}
	}
}

// rung is one attempt of the retry ladder, as the engine's attempt
// function sees it.
type rung struct {
	c sparse.Candidate
	// parent is the Check context; ctx is the attempt's own, with the
	// per-candidate deadline applied — telling the two apart is what
	// separates budget exhaustion from outside cancellation.
	parent, ctx context.Context
	// stall is cancelled only when the attempt is torn down (watchdog
	// abandonment or run cancellation): the injected stall.solve wedge
	// waits on it, because a real wedge ignores deadlines.
	stall context.Context
	// hb is the solver heartbeat the watchdog samples.
	hb *atomic.Int64
	// n is the 1-based attempt number; w is the worker slot.
	n, w int
}

// ladder is the retry ladder every solving engine runs per candidate,
// configured by the engine for one Check call.
type ladder struct {
	*Common
	engine string
	g      *pdg.Graph
	// watchdog allows the per-worker watchdog (armed by
	// Cfg.WatchdogGrace) to supervise attempts; false runs them inline.
	watchdog bool
	// tier is the engine's own absint analysis, nil when it runs without
	// one; the final rung then builds the fallback analysis in fb.
	tier *absint.Analysis
	fb   *fallbackTier
	// attempt runs one attempt, escalating its strategy by at.n.
	attempt func(at rung) Verdict
	// abandoned, when non-nil, is told the worker slot whose attempt the
	// watchdog cut loose.
	abandoned func(w int)
}

// run climbs the ladder for one candidate: run an attempt, and on a
// contained panic or an abandonment re-run it up to Cfg.Retries times.
// A ladder exhausted on crashes records exactly one UnitFailure carrying
// the attempt count; one exhausted on abandonment yields an Abandoned
// verdict. Either way the cheap refutation tiers get a last look, so a
// persistently crashing unit can still end with a sound Unsat.
func (l *ladder) run(parent context.Context, c sparse.Candidate, w int) Verdict {
	if rec := l.Telemetry; rec != nil {
		t0 := time.Now()
		// The ladder span encloses every attempt span on the same track, so
		// the trace nests attempts under their candidate by containment.
		defer func() { rec.Span(w+1, "candidate", UnitLabel(c), t0, time.Now()) }()
	}
	attempts := 1 + l.Cfg.Retries
	var lastFail *failure.UnitFailure
	abandoned := false
	for n := 1; n <= attempts; n++ {
		if parent.Err() != nil {
			return Verdict{Cand: c, Status: sat.Unknown, Attempts: n - 1}
		}
		v, fail, ab := l.once(parent, c, w, n)
		if fail == nil && !ab {
			v.Attempts = n
			return v
		}
		if fail != nil {
			lastFail = fail
		}
		abandoned = ab
	}
	if lastFail != nil {
		lastFail.Attempts = attempts
	}
	v := Verdict{Cand: c, Status: sat.Unknown, Attempts: attempts,
		Abandoned: abandoned, Failure: lastFail}
	// Final ladder rung: the abstract refuters run outside the crashed or
	// wedged solving stack and may still produce a sound Unsat.
	an := l.tier
	if an == nil {
		an = l.fb.analysis(l.g)
	}
	degradeVerdict(parent, an, l.g, c, &v)
	return v
}

// once runs one attempt, under the watchdog when one is allowed and
// armed. On abandonment the attempt's context is cancelled — the
// orphaned goroutine unwinds through the solver's cooperative polling.
func (l *ladder) once(parent context.Context, c sparse.Candidate, w, n int) (Verdict, *failure.UnitFailure, bool) {
	ctx, cancel := l.Cfg.candidateCtx(parent)
	defer cancel()
	stall, stallCancel := context.WithCancel(parent)
	defer stallCancel()
	deadline, _ := ctx.Deadline()
	var wd driver.Watchdog
	if l.watchdog {
		wd.Grace = l.Cfg.WatchdogGrace
	}
	var hb atomic.Int64
	var t0 time.Time
	if l.Telemetry != nil {
		t0 = time.Now()
	}
	at := rung{c: c, parent: parent, ctx: ctx, stall: stall, hb: &hb, n: n, w: w}
	v, fail, abandoned := driver.Supervise(ctx, wd, deadline, &hb, UnitLabel(c), "check",
		func() Verdict { return l.attempt(at) })
	if abandoned && l.abandoned != nil {
		l.abandoned(w)
	}
	if rec := l.Telemetry; rec != nil {
		rec.SolveSpan(w+1, t0, time.Now(), telemetry.SolveInfo{
			Unit: UnitLabel(c), Engine: l.engine,
			Tier: v.Tier.String(), Status: v.Status.String(),
			Attempt: n, Abandoned: abandoned,
		})
		if abandoned {
			// Per-attempt tally: timing-dependent (an earlier rung may or
			// may not have been abandoned before a retry succeeded), so it
			// lives in Sched; the final-verdict Abandoned flag feeds the
			// deterministic watchdog.abandoned counter in recordVerdicts.
			rec.Sched("watchdog.abandoned_attempts", 1)
		}
	}
	return v, fail, abandoned
}

// fallbackTier lazily builds one abstract interpretation per graph for
// the degradation ladder of engines that do not already run the tier.
type fallbackTier struct {
	mu sync.Mutex
	g  *pdg.Graph
	an *absint.Analysis
}

func (f *fallbackTier) analysis(g *pdg.Graph) *absint.Analysis {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.g != g {
		f.an = absint.Analyze(g)
		f.g = g
	}
	return f.an
}

// degradeVerdict is the graceful-degradation ladder: after the
// bit-precise tier exhausted its budget, re-check the candidate with
// the zone-then-interval refuters for a best-effort verdict. A
// refutation is sound at any tier (the domains over-approximate), so a
// degraded Unsat is still a real Unsat — it is tagged with the tier
// that earned it instead of collapsing to a bare Unknown. The ladder
// never reports Sat: feasibility claims stay with the exact tier.
func degradeVerdict(ctx context.Context, an *absint.Analysis, g *pdg.Graph, c sparse.Candidate, v *Verdict) {
	v.Degraded = true
	v.Tier = TierUnknown
	if an == nil || ctx.Err() != nil {
		return
	}
	sl := pdg.ComputeSlice(g, []pdg.Path{c.Path})
	c.ApplyConstraint(sl, 0)
	if refuted, byStride, byZone := an.RefuteSliceTieredCtx(ctx, sl); refuted {
		v.Status = sat.Unsat
		switch {
		case byZone:
			v.Tier = TierRelational
		case byStride:
			v.Tier = TierStride
		default:
			v.Tier = TierInterval
		}
	}
}
