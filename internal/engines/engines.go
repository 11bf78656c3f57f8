// Package engines implements the analysis engines the evaluation compares:
//
//   - Fusion: the fused design (Algorithm 5 + 6) — no condition caching, no
//     eager cloning;
//   - Pinpoint: the conventional design (Algorithm 2) — explicit path
//     conditions, cloned per calling context and retained in a long-lived
//     term cache as function summaries;
//   - Pinpoint+QE / +LFS / +HFS / +AR: the condition-size-reduction
//     variants of §5.1 (quantifier elimination, lightweight and heavyweight
//     formula simplification, abstraction refinement);
//   - Infer: a compositional, path-insensitive summary-based analyzer in
//     the style of bi-abduction tools (§5.2).
//
// All engines share the sparse propagation of package sparse; they differ
// only in how path feasibility is decided, which is exactly the comparison
// the paper makes.
package engines

import (
	"context"
	"sort"
	"sync"
	"time"
	"unsafe"

	"fusion/internal/cond"
	"fusion/internal/driver"
	"fusion/internal/failure"
	"fusion/internal/faultinject"
	"fusion/internal/fusioncore"
	"fusion/internal/pdg"
	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
	"fusion/internal/sparse"
	"fusion/internal/ssa"
	"fusion/internal/telemetry"
)

// Verdict is the decision for one candidate flow.
type Verdict struct {
	Cand   sparse.Candidate
	Status sat.Status // Sat = feasible = reported bug
	// Preprocessed reports the solve was decided during preprocessing.
	Preprocessed bool
	// DecidedByAbsint reports the query was refuted by the
	// abstract-interpretation tier before any formula was built.
	DecidedByAbsint bool
	// DecidedByStride reports the refutation needed the congruence
	// (stride) product but not the zone tier (implies DecidedByAbsint).
	DecidedByStride bool
	// DecidedByZone reports the refutation needed the zone relational
	// tier (implies DecidedByAbsint).
	DecidedByZone bool
	// Simplified counts vertices whose decided singleton invariants the
	// absint-guided pre-simplification folded into local conditions;
	// PrunedGuards is the subset that were branch conditions.
	Simplified   int
	PrunedGuards int
	// SolveTime is the feasibility-decision time for this candidate.
	SolveTime time.Duration
	// CacheHits counts term encodings this candidate's solve reused from
	// earlier queries of its warm session; CacheVars is the size of the
	// retained SAT variable map at that solve; ReusedClauses is the
	// learned clauses it inherited. All zero on the one-shot (-session=off)
	// path. These are cost counters only: they depend on which candidates
	// shared a worker and must never influence a verdict.
	CacheHits     int64
	CacheVars     int
	ReusedClauses int64
	// Conflicts, Decisions, and Props are the SAT search counters of this
	// candidate's final attempt. Like the cache counters above they are
	// cost-only: on the warm-session path they depend on which candidates
	// shared a worker, so they feed the telemetry Sched section and must
	// never influence a verdict.
	Conflicts int64
	Decisions int64
	Props     int64
	// ConditionSize is the DAG size of the condition solved (0 when the
	// engine never materializes one).
	ConditionSize int
	// Tier is the precision tier that produced Status (see Tier).
	Tier Tier
	// Degraded reports the bit-precise tier exhausted its budget and
	// Status came from the fallback ladder (or stayed Unknown when even
	// the cheap tiers could not decide).
	Degraded bool
	// Attempts counts how many times the retry ladder ran this candidate
	// (1 for the common clean first attempt; 0 only on slots synthesized
	// for cancellation). When no fault fires every attempt is 1, so the
	// field stays byte-identical across -retries settings.
	Attempts int
	// Abandoned reports the watchdog hard-abandoned the final attempt:
	// its heartbeat stayed flat past the deadline plus grace window, the
	// unit's goroutine was cut loose, and its session slot was replaced.
	// Status is then Unknown (or a degraded refutation).
	Abandoned bool
	// Failure records a contained crash while checking this candidate;
	// Status is then Unknown and every other field is zero.
	Failure *failure.UnitFailure
}

// Engine decides candidate feasibility.
type Engine interface {
	Name() string
	// Check decides every candidate. Implementations may keep state
	// (caches) across calls, as the conventional design does. Check
	// honors ctx cooperatively: once it is cancelled, the remaining
	// candidates are returned promptly as Unknown partial verdicts —
	// the result always has one verdict per candidate, in input order.
	Check(ctx context.Context, g *pdg.Graph, cands []sparse.Candidate) []Verdict
	// ConditionBytes estimates the memory retained for conditions and
	// summaries after Check.
	ConditionBytes() int64
	// Settings returns the engine's shared settings for in-place update.
	Settings() *Common
}

// Common holds the settings every engine shares. Engines embed it, and
// callers that do not know the concrete engine reach it through
// Engine.Settings; settings an engine has no use for are ignored.
type Common struct {
	Cfg SolverConfig
	// Parallel is the worker count for Check; 0 or 1 means sequential.
	Parallel int
	// NoSession disables the warm incremental solver sessions, rebuilding
	// the solving stack per query — the `-session=off` ablation (and the
	// oracle the differential tests compare against).
	NoSession bool
	// Telemetry, when non-nil, receives per-candidate ladder spans,
	// per-attempt solve spans (on the attempt's worker track), and the
	// verdict-derived counters of every Check. Nil — the default — costs
	// one pointer check per site.
	Telemetry *telemetry.Recorder
	// OnVerdict, when non-nil, observes each candidate's final verdict as
	// soon as its retry ladder settles, before Check returns; i is the
	// candidate's input index. Called from worker goroutines concurrently —
	// the observer synchronizes itself. Verdicts synthesized for slots
	// that crashed outside the supervised region are not observed (they
	// still appear in Check's result).
	OnVerdict func(i int, v Verdict)
}

// Settings implements Engine for every engine that embeds Common.
func (s *Common) Settings() *Common { return s }

// check fans fn out over the configured workers and settles the batch:
// each verdict is observed as soon as fn returns it, slots that crashed
// outside fn's own containment become failure verdicts, and the batch is
// folded into telemetry.
func (s *Common) check(ctx context.Context, cands []sparse.Candidate, fn func(ctx context.Context, c sparse.Candidate, w int) Verdict) []Verdict {
	vs, fails := driver.ParallelCheckWorkers(ctx, len(cands), s.Parallel, func(i, w int) Verdict {
		v := fn(ctx, cands[i], w)
		if s.OnVerdict != nil {
			s.OnVerdict(i, v)
		}
		return v
	})
	attachFailures(vs, fails, cands)
	recordVerdicts(s.Telemetry, vs)
	return vs
}

// SolverConfig carries the per-query solver budget (the paper limits each
// SMT call to 10 seconds).
type SolverConfig struct {
	Timeout      time.Duration
	MaxConflicts int64
	// Deadline bounds each candidate's whole check (translation included,
	// unlike Timeout which only bounds the SAT search) via a derived
	// context, so one adversarial instance cannot eat the run's budget.
	// Zero means none.
	Deadline time.Duration
	// Budget is the deterministic per-candidate resource budget; on
	// exhaustion inside the bit-precise tier the engine degrades to the
	// zone-then-interval refuters instead of reporting bare Unknown.
	// Budget.Conflicts and Budget.Deadline override MaxConflicts and
	// Deadline when set.
	Budget Budget
	// Retries is how many times a candidate whose attempt crashed or was
	// abandoned is re-run, with escalating strategy (warm session →
	// fresh cold session → one-shot stack). 0 means a single attempt.
	// With no fault, verdicts are identical for any value: a clean first
	// attempt never re-runs.
	Retries int
	// WatchdogGrace arms the per-worker watchdog: an attempt whose solver
	// heartbeat stays flat for this long at or past its deadline is
	// hard-abandoned. 0 disables the watchdog (attempts run inline).
	// Pinpoint ignores it and always runs attempts inline: its attempts
	// hold the summary-cache lock, which an abandoned attempt would
	// strand.
	WatchdogGrace time.Duration
}

// SortVerdicts orders verdicts by source position — sink line/column
// first, then source line/column, then argument index — so reports are
// stable however the candidates were enumerated and checked.
func SortVerdicts(vs []Verdict) {
	sort.SliceStable(vs, func(i, j int) bool {
		a, b := vs[i].Cand, vs[j].Cand
		if a.Sink.Pos != b.Sink.Pos {
			if a.Sink.Pos.Line != b.Sink.Pos.Line {
				return a.Sink.Pos.Line < b.Sink.Pos.Line
			}
			return a.Sink.Pos.Col < b.Sink.Pos.Col
		}
		if a.Source.Pos != b.Source.Pos {
			if a.Source.Pos.Line != b.Source.Pos.Line {
				return a.Source.Pos.Line < b.Source.Pos.Line
			}
			return a.Source.Pos.Col < b.Source.Pos.Col
		}
		if a.ArgIdx != b.ArgIdx {
			return a.ArgIdx < b.ArgIdx
		}
		return len(a.Path) < len(b.Path)
	})
}

func (c SolverConfig) options() solver.Options {
	o := solver.Options{Timeout: c.Timeout, MaxConflicts: c.MaxConflicts}
	if c.Budget.Conflicts > 0 {
		o.MaxConflicts = c.Budget.Conflicts
	}
	if c.Budget.Steps > 0 {
		o.MaxDecisions = c.Budget.Steps
	}
	if o.Timeout == 0 {
		o.Timeout = 10 * time.Second
	}
	return o
}

// --- Fusion ---

// Fusion is the fused engine: per-candidate solving directly on the
// dependence graph, nothing cached between candidates. Candidates are
// independent, so checking parallelizes trivially — the paper runs its
// analyses with fifteen threads.
type Fusion struct {
	Common
	// Opts tunes the fused solver (ablations). Opts.Absint is the
	// abstract-interpretation tier, consulted before every solve; nil
	// leaves it off. UseTier wires a compiled program's tier in.
	Opts fusioncore.Options
	mu   sync.Mutex
	peak int64
	// sessions is the pool-affine warm solver pool: one session per
	// ParallelCheck worker slot, reused across Check calls.
	sessions *driver.Sessions
	// fb is the lazily-built fallback analysis the degradation ladder
	// consults when the engine runs without its own absint tier.
	fb fallbackTier
}

// NewFusion returns the fused engine with default options.
func NewFusion() *Fusion { return &Fusion{} }

// UseTier wires the program's abstract-interpretation tier into the
// engine — its analysis for refutation, and the pre-simplification
// switch of the nosimplify mode — and returns the enumeration oracle
// backed by the same analysis (nil when the tier is off). The program
// builds the analysis on first use and every later run on it reuses the
// build.
func (e *Fusion) UseTier(p *driver.Program) func(sparse.Candidate) bool {
	e.Opts.Absint = p.Absint()
	if p.AbsintMode() == driver.AbsintNoSimplify {
		e.Opts.DisableAbsintSimplify = true
	}
	return p.Oracle()
}

// Name implements Engine.
func (e *Fusion) Name() string { return "fusion" }

// SessionStats exposes the warm pool's cumulative counters for reporting
// (zeroes when sessions are disabled or Check has not run).
func (e *Fusion) SessionStats() (queries, cacheHits, evictions, resets int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sessions == nil {
		return
	}
	return e.sessions.Stats()
}

// sessionPool returns the warm pool sized for at least n worker slots,
// growing (and re-warming) it when the Check fan-out widens.
func (e *Fusion) sessionPool(n int) *driver.Sessions {
	if e.NoSession {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.sessions == nil || e.sessions.Len() < n {
		e.sessions = driver.NewSessions(n, solver.SessionConfig{})
	}
	return e.sessions
}

// Check implements Engine. Each candidate climbs the shared retry
// ladder under the watchdog; attempt 1 uses the worker's warm session,
// attempt 2 a fresh cold session in the same slot, attempt 3+ the
// one-shot stack with no warm state at all. An abandoned attempt's
// session slot is replaced, because the orphaned goroutine still owns
// the old session's solving stack.
func (e *Fusion) Check(ctx context.Context, g *pdg.Graph, cands []sparse.Candidate) []Verdict {
	pool := e.sessionPool(driver.PoolSize(len(cands), e.Parallel))
	l := ladder{
		Common: &e.Common, engine: e.Name(), g: g,
		watchdog: true, tier: e.Opts.Absint, fb: &e.fb,
		attempt: func(at rung) Verdict {
			var sess *solver.Session
			if pool != nil {
				switch at.n {
				case 1:
					sess = pool.At(at.w)
				case 2:
					sess = pool.Replace(at.w)
				}
			}
			return e.checkOne(at, g, sess)
		},
		abandoned: func(w int) {
			if pool != nil {
				pool.Replace(w)
			}
		},
	}
	return e.check(ctx, cands, l.run)
}

// checkOne runs a single attempt: at.parent is the caller's context,
// at.ctx the attempt's own (per-candidate deadline applied);
// distinguishing the two is what tells budget exhaustion from outside
// cancellation.
func (e *Fusion) checkOne(at rung, g *pdg.Graph, sess *solver.Session) Verdict {
	c := at.c
	// Bail on the parent only: an already-expired per-candidate deadline
	// (ctx) must still reach the exhaustion path below so the
	// degradation ladder gets its look.
	if at.parent.Err() != nil {
		return Verdict{Cand: c, Status: sat.Unknown}
	}
	var b *smt.Builder
	if sess != nil {
		// Begin before the fault-injection point: a contained panic below
		// must leave the session marked in-flight so its next Begin
		// rebuilds the (possibly corrupted) warm state.
		sess.Begin()
		b = sess.Builder()
	} else {
		b = smt.NewBuilder()
	}
	// The fused design's memory figure is the peak per-candidate working
	// set: with a warm session the builder persists, so the candidate's
	// own footprint is the growth it causes, not the accumulated cache.
	bytesBefore := b.EstimatedBytes()
	if faultinject.Enabled() {
		unit := UnitLabel(c)
		faultinject.Fire("panic.check", unit)
		faultinject.FireSolveAttempt(unit, at.n)
		faultinject.Delay(unit, 50*time.Millisecond)
	}
	opts := e.Opts
	opts.Solver = e.Cfg.options()
	opts.Solver.Unit = UnitLabel(c)
	opts.Solver.Heartbeat = at.hb
	opts.Solver.StallCtx = at.stall
	opts.Session = sess
	opts.Constraints = c.Constraints(0)
	if e.Cfg.Budget.MaxHeapDelta > 0 && opts.MaxHeapDelta == 0 {
		opts.MaxHeapDelta = e.Cfg.Budget.MaxHeapDelta
	}
	if faultinject.Exhaust(UnitLabel(c)) {
		// Artificial solver-step exhaustion: the real budget machinery
		// runs and exhausts on the first branching decision.
		opts.Solver.MaxDecisions = 1
	}
	t0 := time.Now()
	r := fusioncore.Solve(at.ctx, b, g, []pdg.Path{c.Path}, opts)
	v := Verdict{
		Cand: c, Status: r.Status, Preprocessed: r.Preprocessed,
		DecidedByAbsint: r.DecidedByAbsint,
		DecidedByStride: r.DecidedByStride,
		DecidedByZone:   r.DecidedByZone,
		Simplified:      r.Simplified,
		PrunedGuards:    r.PrunedGuards,
		CacheHits:       r.CacheHits,
		CacheVars:       r.CacheVars,
		ReusedClauses:   r.ReusedClauses,
		Conflicts:       r.Conflicts,
		Decisions:       r.Decisions,
		Props:           r.Props,
		SolveTime:       time.Since(t0), ConditionSize: r.SizeBefore,
		Tier: tierOf(r.Status, r.DecidedByAbsint, r.DecidedByStride, r.DecidedByZone),
	}
	if rec := e.Telemetry; rec != nil {
		// Wall breakdown of the fused solve: residual construction vs the
		// solver stages, so a trace plus snapshot attributes cost without
		// per-candidate keys.
		rec.Wall("solve.build", r.BuildTime)
		rec.Wall("solve.local_preprocess", r.LocalPreprocessTime)
		rec.Wall("solve.preprocess", r.PreprocessTime)
		rec.Wall("solve.search", r.SearchTime)
		rec.Wall("solve.probe", r.ProbeTime)
	}
	// The per-candidate deadline firing (parent still alive) is budget
	// exhaustion too, even though the solver saw it as ctx cancellation.
	exhausted := r.Exhausted ||
		(r.Status == sat.Unknown && at.ctx.Err() != nil && at.parent.Err() == nil)
	if exhausted {
		// Degradation ladder: when the engine's own absint tier already
		// failed to refute before the solve, re-running it cannot help —
		// the verdict stays Unknown but is tagged degraded. Without the
		// tier, the cheap refuters get their first look now.
		if opts.Absint != nil {
			v.Degraded, v.Tier = true, TierUnknown
		} else {
			degradeVerdict(at.parent, e.fb.analysis(g), g, c, &v)
		}
	}
	e.mu.Lock()
	if d := b.EstimatedBytes() - bytesBefore; d > e.peak {
		e.peak = d
	}
	e.mu.Unlock()
	if sess != nil {
		// Deliberately not deferred: a contained panic above must skip
		// Finish so the poisoning stays observable.
		sess.Finish()
	}
	return v
}

// candidateCtx derives the per-candidate deadline context from ctx,
// honoring the tighter of Deadline and Budget.Deadline.
func (c SolverConfig) candidateCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	d := c.Deadline
	if c.Budget.Deadline > 0 && (d == 0 || c.Budget.Deadline < d) {
		d = c.Budget.Deadline
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// ConditionBytes implements Engine: the fused design caches nothing, so
// only the peak per-candidate working set counts.
func (e *Fusion) ConditionBytes() int64 { return e.peak }

// --- Pinpoint ---

// Variant selects a Pinpoint condition-reduction strategy.
type Variant int

// Pinpoint variants.
const (
	Plain Variant = iota
	QE            // quantifier elimination on each condition
	LFS           // lightweight formula simplification
	HFS           // heavyweight (context) formula simplification
	AR            // abstraction refinement
)

func (v Variant) String() string {
	switch v {
	case QE:
		return "pinpoint+qe"
	case LFS:
		return "pinpoint+lfs"
	case HFS:
		return "pinpoint+hfs"
	case AR:
		return "pinpoint+ar"
	default:
		return "pinpoint"
	}
}

// Pinpoint is the conventional engine: eager per-context condition cloning
// (cond.Translate) over a long-lived builder that models the function
// summary cache — every condition ever computed stays resident, which is
// the memory behaviour Figure 1(c) measures.
//
// Common.Parallel is honoured, but the shared summary cache is
// single-writer, so candidates serialize on mu around translation and
// solving — parallelism only overlaps the per-candidate slicing with a
// running solve, faithfully to the design's memory behaviour.
type Pinpoint struct {
	Common
	Variant Variant
	// cache is the shared term store standing in for the summary cache.
	cache *smt.Builder
	// warm is the incremental session over cache. A single session, not a
	// pool: every candidate already serializes on mu. KeepBuilder pins
	// cache across session resets — swapping it would orphan the
	// summaries whose retention Figure 1(c) measures.
	warm *solver.Session
	// mu guards cache across concurrent candidates.
	mu sync.Mutex
	// QEBudget bounds projection in the QE variant.
	QEBudget int
	// fb is the lazily-built fallback analysis for the degradation
	// ladder (the conventional design has no absint tier of its own).
	fb fallbackTier
}

// NewPinpoint returns a conventional engine of the given variant.
func NewPinpoint(v Variant) *Pinpoint {
	return &Pinpoint{Variant: v, cache: smt.NewBuilder()}
}

// Name implements Engine.
func (e *Pinpoint) Name() string { return e.Variant.String() }

// ConditionBytes implements Engine.
func (e *Pinpoint) ConditionBytes() int64 { return e.cache.EstimatedBytes() }

// Check implements Engine. Each candidate climbs the shared retry
// ladder with no watchdog: candidates serialize on the summary-cache
// lock, so an abandoned attempt would strand the lock-holding goroutine
// and deadlock every other candidate. The warm session still self-heals:
// a contained panic skips Finish, so the next attempt's Begin rebuilds
// the solving stack (attempt 2's "fresh cold session"), and attempt 3+
// bypasses the session entirely for a one-shot solve.
func (e *Pinpoint) Check(ctx context.Context, g *pdg.Graph, cands []sparse.Candidate) []Verdict {
	l := ladder{
		Common: &e.Common, engine: e.Name(), g: g,
		watchdog: false, fb: &e.fb,
		attempt: func(at rung) Verdict { return e.checkOneVerdict(at, g) },
	}
	return e.check(ctx, cands, l.run)
}

func (e *Pinpoint) checkOneVerdict(at rung, g *pdg.Graph) Verdict {
	c := at.c
	if at.parent.Err() != nil {
		return Verdict{Cand: c, Status: sat.Unknown}
	}
	if faultinject.Enabled() {
		unit := UnitLabel(c)
		faultinject.Fire("panic.check", unit)
		faultinject.FireSolveAttempt(unit, at.n)
		faultinject.Delay(unit, 50*time.Millisecond)
	}
	t0 := time.Now()
	r, size := e.checkOne(at, g)
	v := Verdict{
		Cand: c, Status: r.Status, Preprocessed: r.Preprocessed,
		CacheHits:     r.CacheHits,
		CacheVars:     r.CacheVars,
		ReusedClauses: r.ReusedClauses,
		Conflicts:     r.Conflicts,
		Decisions:     r.Decisions,
		Props:         r.Props,
		SolveTime:     time.Since(t0), ConditionSize: size,
		Tier: tierOf(r.Status, false, false, false),
	}
	if rec := e.Telemetry; rec != nil {
		rec.Wall("solve.preprocess", r.PreprocessTime)
		rec.Wall("solve.search", r.SearchTime)
		rec.Wall("solve.probe", r.ProbeTime)
	}
	if r.Status == sat.Unknown && r.Exhausted {
		degradeVerdict(at.parent, e.fb.analysis(g), g, c, &v)
	}
	return v
}

// session returns the warm stack over the summary cache, building it on
// first use. Callers must hold mu. Nil under the -session=off ablation.
func (e *Pinpoint) session() *solver.Session {
	if e.NoSession {
		return nil
	}
	if e.warm == nil {
		e.warm = solver.NewSessionWith(e.cache, solver.SessionConfig{KeepBuilder: true})
	}
	return e.warm
}

// SessionStats exposes the warm session's cumulative counters for
// reporting (zeroes when disabled or unused).
func (e *Pinpoint) SessionStats() (queries, cacheHits, evictions, resets int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.warm == nil {
		return
	}
	return e.warm.Queries, e.warm.CacheHits, e.warm.Evictions, e.warm.Resets
}

func (e *Pinpoint) checkOne(at rung, g *pdg.Graph) (solver.Result, int) {
	c, ctx := at.c, at.ctx
	sl := pdg.ComputeSlice(g, []pdg.Path{c.Path})
	c.ApplyConstraint(sl, 0)
	opts := e.Cfg.options()
	opts.Ctx = ctx
	opts.Unit = UnitLabel(c)
	if faultinject.Exhaust(opts.Unit) {
		opts.MaxDecisions = 1
	}

	// The shared summary cache is a single-writer term store: everything
	// from translation on runs under the cache lock.
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.cache
	sess := e.session()
	if at.n >= 3 {
		// Ladder escalation: past the warm and rebuilt-session rungs,
		// solve one-shot with no warm state at all.
		sess = nil
	}
	if sess != nil {
		sess.Begin()
	}
	// solve routes every query of this candidate — final solves and the
	// variants' internal ones alike — through the warm session when on.
	solve := func(q *smt.Term, o solver.Options) solver.Result {
		if sess != nil {
			return sess.Solve(q, o)
		}
		return solver.Solve(b, q, o)
	}

	var r solver.Result
	var size int
	if e.Variant == AR {
		r, size = e.checkRefined(b, sl, opts, solve)
	} else {
		tr := cond.Translate(b, sl)
		phi := tr.Phi
		switch e.Variant {
		case QE:
			phi = e.eliminate(ctx, b, phi, sl, solve)
		case LFS:
			phi = smt.SimplifyLocal(b, phi)
		case HFS:
			cs := &smt.ContextSimplifier{
				Solve: func(bb *smt.Builder, q *smt.Term) (bool, bool) {
					r := solve(q, opts)
					switch r.Status {
					case sat.Sat:
						return true, false
					case sat.Unsat:
						return false, false
					default:
						return false, true
					}
				},
				MaxQueries: 32,
			}
			phi = cs.Simplify(b, phi)
		}
		r = solve(phi, opts)
		size = r.SizeBefore
	}
	// The per-candidate deadline firing (parent still alive) counts as
	// budget exhaustion, not outside cancellation.
	if r.Status == sat.Unknown && !r.Exhausted &&
		ctx.Err() != nil && at.parent.Err() == nil {
		r.Exhausted = true
	}
	if sess != nil {
		// Not deferred: a contained panic must leave the session marked
		// in-flight so the next candidate rebuilds the warm state.
		sess.Finish()
	}
	return r, size
}

// eliminate projects the condition onto the root functions' variables —
// what a QE tactic is used for in summary-based analyzers. Projection over
// bit-vectors blows up; on budget exhaustion the original condition is
// solved instead (the time and memory have already been spent, which is
// the point the evaluation makes).
func (e *Pinpoint) eliminate(ctx context.Context, b *smt.Builder, phi *smt.Term, sl *pdg.Slice, solve func(*smt.Term, solver.Options) solver.Result) *smt.Term {
	roots := map[string]bool{}
	for _, f := range sl.Roots() {
		roots[f.Name+"."] = true
	}
	isRootVar := func(name string) bool {
		for p := range roots {
			if len(name) > len(p) && name[:len(p)] == p {
				return true
			}
		}
		return false
	}
	var drop []*smt.Term
	for _, v := range smt.Vars(phi) {
		if !isRootVar(v.Name) {
			drop = append(drop, v)
		}
	}
	budget := e.QEBudget
	if budget == 0 {
		budget = 64
	}
	opts := e.Cfg.options()
	opts.Ctx = ctx
	opts.Passes = solver.NoPasses
	opts.WantModel = true
	res, err := smt.Eliminate(b, phi, drop, smt.QEOptions{
		MaxCubes: budget,
		Solve: func(bb *smt.Builder, q *smt.Term) (sat.Status, smt.Assignment) {
			r := solve(q, opts)
			return r.Status, r.Model
		},
	})
	if err != nil {
		return phi
	}
	return res
}

// checkRefined is the abstraction-refinement loop: solve the condition
// truncated at increasing context depths, stopping early on unsat (the
// truncation over-approximates) and refining on sat until nothing was
// truncated.
func (e *Pinpoint) checkRefined(b *smt.Builder, sl *pdg.Slice, opts solver.Options, solve func(*smt.Term, solver.Options) solver.Result) (solver.Result, int) {
	size := 0
	for depth := 1; ; depth++ {
		tr := cond.TranslateDepth(b, sl, depth)
		r := solve(tr.Phi, opts)
		size = r.SizeBefore
		if r.Status == sat.Unsat || r.Status == sat.Unknown || !tr.Truncated {
			return r, size
		}
		if depth > 64 {
			// Refinement ran out of depth: the truncated Sat answers are
			// inconclusive, which is a budget-shaped outcome.
			r.Status, r.Preprocessed, r.Exhausted = sat.Unknown, false, true
			return r, size
		}
	}
}

// --- Infer ---

// Infer is a compositional, path-insensitive analyzer in the bi-abduction
// style: per-function specs are computed bottom-up over the whole program
// with callee specs inlined into callers — which duplicates them along
// every call chain, the memory behaviour §5.2 observes — and every
// syntactic flow is reported without a feasibility check (the precision
// loss behind its false-positive rate).
type Infer struct {
	// Common's Parallel, Telemetry, and OnVerdict apply; Infer never
	// solves, so the solver settings are ignored. The spec join stays
	// single-writer whatever Parallel is.
	Common
	// MaxSummaryDepth bounds how deep flows are tracked across calls;
	// deeper flows are missed (the recall loss of limited cross-file
	// reasoning).
	MaxSummaryDepth int
	// SpecBudget caps the total materialized spec entries; exceeding it
	// models running out of memory (the paper's wine result). Zero means
	// 32 million entries.
	SpecBudget int64
	bytes      int64
	// specs holds the materialized per-function spec tables, kept alive
	// for the engine's lifetime like a summary cache.
	specs map[string][]specEntry
}

// specEntry is one pre/post fact of a compositional function spec.
type specEntry struct {
	vertexID int32
	kind     int8
	depth    int8
}

// NewInfer returns the Infer-like engine.
func NewInfer() *Infer { return &Infer{MaxSummaryDepth: 3} }

// Name implements Engine.
func (e *Infer) Name() string { return "infer" }

// ConditionBytes implements Engine.
func (e *Infer) ConditionBytes() int64 { return e.bytes }

// Check implements Engine.
func (e *Infer) Check(ctx context.Context, g *pdg.Graph, cands []sparse.Candidate) []Verdict {
	// The spec join is single-writer: build it once before fanning out;
	// scoring below only reads it.
	if ctx.Err() == nil {
		e.buildSpecs(g)
	}
	return e.check(ctx, cands, func(ctx context.Context, c sparse.Candidate, _ int) Verdict {
		if ctx.Err() != nil {
			return Verdict{Cand: c, Status: sat.Unknown}
		}
		if faultinject.Enabled() {
			faultinject.Fire("panic.check", UnitLabel(c))
		}
		st := sat.Sat // no feasibility check: every flow is reported
		if crossings(c.Path) > e.MaxSummaryDepth {
			st = sat.Unsat // flow too deep for the compositional summary
		}
		return Verdict{Cand: c, Status: st}
	})
}

func crossings(p pdg.Path) int {
	n := 0
	for _, s := range p {
		if s.Kind != pdg.StepIntra && s.Kind != pdg.StepStart {
			n++
		}
	}
	return n
}

// buildSpecs materializes a compositional spec table for every function:
// its own facts plus an inlined copy of each callee's spec per call site.
// Along deep call DAGs with several sites per callee this duplication is
// multiplicative, which is what makes summary-based analyzers memory-bound
// on large programs.
func (e *Infer) buildSpecs(g *pdg.Graph) {
	if e.specs != nil {
		return
	}
	budget := e.SpecBudget
	if budget <= 0 {
		budget = 32 << 20
	}
	e.specs = map[string][]specEntry{}
	var total int64
	var build func(f *ssa.Function, depth int) []specEntry
	build = func(f *ssa.Function, depth int) []specEntry {
		if s, ok := e.specs[f.Name]; ok {
			return s
		}
		var spec []specEntry
		for _, v := range f.Values {
			if total > budget {
				break
			}
			spec = append(spec, specEntry{vertexID: int32(v.ID), depth: int8(depth % 127)})
			total++
			if v.Op == ssa.OpCall && depth < 32 {
				callee := g.Callee(v)
				sub := build(callee, depth+1)
				if total+int64(len(sub)) > budget {
					total = budget + 1
					break
				}
				// Inline the callee spec at this call site.
				spec = append(spec, sub...)
				total += int64(len(sub))
			}
		}
		e.specs[f.Name] = spec
		return spec
	}
	for _, f := range g.Prog.Order {
		if total > budget {
			break
		}
		build(f, 0)
	}
	e.bytes = total * int64(unsafe.Sizeof(specEntry{}))
}

// recordVerdicts folds one Check's verdicts into the telemetry recorder.
// Verdict-derived tallies go to the deterministic Counters section — a
// Verdict is byte-identical for any worker count, so anything read off
// one is too. The SAT and cache cost counters go to Sched (they depend
// on how candidates were batched onto warm sessions), and total solve
// time to Wall. Runs after attachFailures so crashed slots are tallied.
func recordVerdicts(r *telemetry.Recorder, vs []Verdict) {
	if r == nil {
		return
	}
	for i := range vs {
		v := &vs[i]
		r.Count("verdicts.total", 1)
		r.Count("verdicts."+v.Status.String(), 1)
		r.Count("tier."+v.Tier.String(), 1)
		if v.Preprocessed {
			r.Count("solve.preprocessed", 1)
		}
		if v.DecidedByAbsint {
			r.Count("absint.decided", 1)
			if v.DecidedByStride {
				r.Count("absint.stride", 1)
			}
			if v.DecidedByZone {
				r.Count("absint.zone", 1)
			}
		}
		r.Count("simplify.vertices", int64(v.Simplified))
		r.Count("simplify.guards", int64(v.PrunedGuards))
		if v.Degraded {
			r.Count("degraded.total", 1)
			if v.Status == sat.Unsat {
				r.Count("degraded.unsat", 1)
			}
		}
		if v.Attempts > 1 {
			r.Count("retry.retried", 1)
			if v.Failure == nil && !v.Abandoned {
				r.Count("retry.recovered", 1)
			}
		}
		if v.Abandoned {
			r.Count("watchdog.abandoned", 1)
		}
		if v.Failure != nil {
			r.Count("failures.total", 1)
			r.Count("failure."+v.Failure.Digest(), 1)
		}
		r.Sched("sat.conflicts", v.Conflicts)
		r.Sched("sat.decisions", v.Decisions)
		r.Sched("sat.propagations", v.Props)
		r.Sched("session.cache_hits", v.CacheHits)
		r.Sched("session.reused_clauses", v.ReusedClauses)
		r.SchedMax("session.cache_vars_max", int64(v.CacheVars))
		r.Wall("solve.total", v.SolveTime)
	}
}

// SetParallel sets the engine's Check worker count.
func SetParallel(e Engine, workers int) { e.Settings().Parallel = workers }

// SetTelemetry attaches a telemetry recorder to the engine.
func SetTelemetry(e Engine, r *telemetry.Recorder) { e.Settings().Telemetry = r }

// SetOnVerdict installs (or, with nil, removes) the engine's per-verdict
// observer.
func SetOnVerdict(e Engine, fn func(int, Verdict)) { e.Settings().OnVerdict = fn }

// All returns every engine the evaluation compares, freshly constructed.
func All() []Engine {
	return []Engine{
		NewFusion(),
		NewPinpoint(Plain),
		NewPinpoint(QE),
		NewPinpoint(LFS),
		NewPinpoint(HFS),
		NewPinpoint(AR),
		NewInfer(),
	}
}
