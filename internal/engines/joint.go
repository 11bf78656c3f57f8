package engines

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fusion/internal/cond"
	"fusion/internal/driver"
	"fusion/internal/failure"
	"fusion/internal/fusioncore"
	"fusion/internal/pdg"
	"fusion/internal/sat"
	"fusion/internal/smt"
	"fusion/internal/solver"
	"fusion/internal/sparse"
	"fusion/internal/ssa"
)

// The paper's §3.1 taint example checks two data-dependence paths at once:
// a password and a destination flowing into send(c, d) is only a leak if
// both paths are *simultaneously* feasible — the conjunction of their path
// conditions must be satisfiable. This file implements that joint checking
// on top of both engine designs.

// JointChecker is implemented by engines that can decide the joint
// feasibility of several flows.
type JointChecker interface {
	CheckJointPaths(ctx context.Context, g *pdg.Graph, paths []pdg.Path) sat.Status
	// Settings supplies the retry-ladder height CheckJoint honours.
	Settings() *Common
}

// CheckJointPaths implements JointChecker for the fused engine. Joint
// queries route through slot 0 of the same warm session pool Check
// uses, so they share term encodings and learned clauses with the
// per-candidate queries — and inherit the pool's poisoning semantics: a
// contained panic skips Finish and the next Begin rebuilds the stack.
// Not safe concurrently with Check (slot 0 belongs to worker 0 there);
// CheckJoint runs groups sequentially after the per-candidate pass.
func (e *Fusion) CheckJointPaths(ctx context.Context, g *pdg.Graph, paths []pdg.Path) sat.Status {
	var b *smt.Builder
	var sess *solver.Session
	if pool := e.sessionPool(1); pool != nil {
		sess = pool.At(0)
		sess.Begin()
		b = sess.Builder()
	} else {
		b = smt.NewBuilder()
	}
	bytesBefore := b.EstimatedBytes()
	opts := e.Opts
	opts.Solver = e.Cfg.options()
	opts.Session = sess
	r := fusioncore.Solve(ctx, b, g, paths, opts)
	e.mu.Lock()
	if d := b.EstimatedBytes() - bytesBefore; d > e.peak {
		e.peak = d
	}
	e.mu.Unlock()
	if sess != nil {
		// Not deferred: a contained panic must leave the session marked
		// in-flight so the next Begin rebuilds the warm state.
		sess.Finish()
	}
	return r.Status
}

// CheckJointPaths implements JointChecker for the conventional engine,
// solving over the same warm session as the per-candidate checks so the
// summary cache's encodings are reused instead of rebuilt cold.
func (e *Pinpoint) CheckJointPaths(ctx context.Context, g *pdg.Graph, paths []pdg.Path) sat.Status {
	opts := e.Cfg.options()
	opts.Ctx = ctx
	e.mu.Lock()
	defer e.mu.Unlock()
	sl := pdg.ComputeSlice(g, paths)
	tr := cond.Translate(e.cache, sl)
	if sess := e.session(); sess != nil {
		sess.Begin()
		r := sess.Solve(tr.Phi, opts)
		sess.Finish()
		return r.Status
	}
	return solver.Solve(e.cache, tr.Phi, opts).Status
}

// JointGroup is a set of candidate flows into distinct arguments of the
// same sink call.
type JointGroup struct {
	Sink  *ssa.Value
	Flows []sparse.Candidate
}

// GroupBySink collects candidates that target distinct argument positions
// of the same sink vertex; only sinks receiving two or more tracked
// arguments form a group. When several flows reach the same argument, one
// representative per argument is kept (joint checking asks whether the
// arguments can be tainted together, not which path does it).
func GroupBySink(cands []sparse.Candidate) []JointGroup {
	type key struct {
		sink *ssa.Value
	}
	byArg := map[key]map[int]sparse.Candidate{}
	for _, c := range cands {
		k := key{c.Sink}
		if byArg[k] == nil {
			byArg[k] = map[int]sparse.Candidate{}
		}
		if _, dup := byArg[k][c.ArgIdx]; !dup {
			byArg[k][c.ArgIdx] = c
		}
	}
	var out []JointGroup
	for k, args := range byArg {
		if len(args) < 2 {
			continue
		}
		g := JointGroup{Sink: k.sink}
		idxs := make([]int, 0, len(args))
		for i := range args {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for _, i := range idxs {
			g.Flows = append(g.Flows, args[i])
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Sink, out[j].Sink
		if a.Fn.Name != b.Fn.Name {
			return a.Fn.Name < b.Fn.Name
		}
		return a.ID < b.ID
	})
	return out
}

// JointVerdict is the result of checking one group.
type JointVerdict struct {
	Group  JointGroup
	Status sat.Status
	Time   time.Duration
	// Attempts counts retry-ladder runs (1 for a clean first attempt);
	// Failure records the last contained crash when the ladder exhausted.
	Attempts int
	Failure  *failure.UnitFailure
}

// jointUnitLabel names one group for failure reports, stable under
// enumeration order: the sink's function and vertex plus the flow count.
func jointUnitLabel(grp JointGroup) string {
	return fmt.Sprintf("joint %s#%d*%d", grp.Sink.Fn.Name, grp.Sink.ID, len(grp.Flows))
}

// CheckJoint decides every multi-argument sink group with the given
// engine, under the same containment and retry ladder as per-candidate
// checks: a contained panic poisons the engine's warm session (the next
// Begin rebuilds it, which is the cold-retry rung) and the group is
// re-run up to the engine's retries. A cancelled ctx yields Unknown for
// the remaining groups.
func CheckJoint(ctx context.Context, eng JointChecker, g *pdg.Graph, cands []sparse.Candidate) []JointVerdict {
	groups := GroupBySink(cands)
	retries := eng.Settings().Cfg.Retries
	out := make([]JointVerdict, 0, len(groups))
	for _, grp := range groups {
		if ctx.Err() != nil {
			out = append(out, JointVerdict{Group: grp, Status: sat.Unknown})
			continue
		}
		paths := make([]pdg.Path, len(grp.Flows))
		for i, f := range grp.Flows {
			paths[i] = f.Path
		}
		jv := JointVerdict{Group: grp, Status: sat.Unknown}
		t0 := time.Now()
		for attempt := 1; attempt <= 1+retries; attempt++ {
			if ctx.Err() != nil {
				break
			}
			st, fail, _ := driver.Supervise(ctx, driver.Watchdog{}, time.Time{}, nil,
				jointUnitLabel(grp), "joint", func() sat.Status {
					return eng.CheckJointPaths(ctx, g, paths)
				})
			jv.Attempts, jv.Failure = attempt, fail
			if fail == nil {
				jv.Status = st
				break
			}
			jv.Failure.Attempts = attempt
		}
		jv.Time = time.Since(t0)
		out = append(out, jv)
	}
	return out
}
