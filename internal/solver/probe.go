package solver

import (
	"math/rand"
	"sort"

	"fusion/internal/smt"
)

// Probe attempts to find a model by concrete execution before paying for
// preprocessing and bit-blasting: path conditions are mostly systems of
// definitions var = f(inputs) plus variable aliases var = var, so sampling
// the free inputs and computing the defined variables forward decides many
// satisfiable instances instantly. Sample values are seeded with the
// constants appearing near each input, which makes guards like "x == 37"
// reachable. Every evaluation runs on one slot-indexed tape of phi
// (smt.Tape); a model the tape accepts is checked once more with
// smt.Eval before it is returned, so Probe is sound whatever the tape
// computes.
func Probe(phi *smt.Term, tries int) (smt.Assignment, bool) {
	// The tape lists phi's sub-terms in a depth-first order whose leaves
	// come in first-occurrence order, which is the order the variables,
	// the value pool and the hints below are drawn in.
	tp := smt.Compile(phi)
	var vars []*smt.Term
	for _, t := range tp.Terms() {
		if t.Op == smt.OpVar {
			vars = append(vars, t)
		}
	}
	if len(vars) == 0 || len(vars) > 1<<16 {
		return nil, false
	}

	// Union variables related by alias conjuncts (x = y), including the
	// formal/actual parameter links of path conditions.
	parent := map[*smt.Term]*smt.Term{}
	var find func(v *smt.Term) *smt.Term
	find = func(v *smt.Term) *smt.Term {
		p, ok := parent[v]
		if !ok || p == v {
			return v
		}
		r := find(p)
		parent[v] = r
		return r
	}
	for _, cj := range smt.Conjuncts(phi) {
		if cj.Op == smt.OpEq && cj.Args[0].Op == smt.OpVar && cj.Args[1].Op == smt.OpVar {
			rx, ry := find(cj.Args[0]), find(cj.Args[1])
			if rx != ry {
				parent[rx] = ry
			}
		}
	}
	members := map[*smt.Term][]*smt.Term{}
	for _, v := range vars {
		r := find(v)
		members[r] = append(members[r], v)
	}

	// Definitions per alias class. Direct forms (class = term) are taken
	// as-is; equations whose variable is buried under a chain of
	// invertible operators, as the preprocessing passes produce (e.g.
	// x + t = rhs), are solved numerically through the recorded inverse
	// chain at evaluation time.
	defs := map[*smt.Term]*defn{}
	for _, cj := range smt.Conjuncts(phi) {
		if cj.Op != smt.OpEq {
			continue
		}
		for _, ord := range [2][2]*smt.Term{{cj.Args[0], cj.Args[1]}, {cj.Args[1], cj.Args[0]}} {
			lhs, rhs := ord[0], ord[1]
			v, chain, ok := solveToward(lhs, 0)
			if !ok {
				continue
			}
			r := find(v)
			if defs[r] != nil {
				continue
			}
			// Neither rhs nor the chain's side operands may depend on v.
			d := &defn{rhs: rhs, chain: chain, deps: smt.Vars(rhs)}
			for _, st := range chain {
				if st.other != nil {
					d.deps = append(d.deps, smt.Vars(st.other)...)
				}
			}
			clean := true
			for _, x := range d.deps {
				if find(x) == r {
					clean = false
					break
				}
			}
			if !clean {
				continue
			}
			defs[r] = d
			break
		}
	}
	var inputs []*smt.Term // class representatives with no definition
	for r := range members {
		if defs[r] == nil {
			inputs = append(inputs, r)
		}
	}
	sort.Slice(inputs, func(i, j int) bool { return inputs[i].ID < inputs[j].ID })

	// Topologically order the defined classes so each try is one pass.
	var order []*smt.Term
	state := map[*smt.Term]int8{}
	var visit func(r *smt.Term)
	visit = func(r *smt.Term) {
		if state[r] != 0 {
			return
		}
		state[r] = 1
		for _, dep := range defs[r].deps {
			dr := find(dep)
			if defs[dr] != nil && state[dr] == 0 {
				visit(dr)
			}
		}
		state[r] = 2
		order = append(order, r)
	}
	for _, v := range vars {
		if r := find(v); defs[r] != nil {
			visit(r)
		}
	}

	pt := newProbeTape(tp, phi, members, defs, order, find)
	inputClasses := make([]int, len(inputs))
	for i, r := range inputs {
		inputClasses[i] = pt.class[r]
	}

	// Value pool: formula constants and near misses, plus small values.
	// Targeted suggestions: an equality or comparison between a variable
	// and a constant anywhere in the formula (e.g. the "b == 5" disjunct
	// of a guard) suggests values for that variable's class.
	pool := []uint32{0, 1, 2, 5, 0xFFFFFFFF}
	seenConst := map[uint32]bool{}
	type hint struct {
		class int
		val   uint32
	}
	var hints []hint
	suggest := func(v *smt.Term, c uint32) {
		r := find(v)
		for _, val := range [3]uint32{c, c + 1, c - 1} {
			if defs[r] == nil && len(hints) < 96 {
				hints = append(hints, hint{pt.class[r], val})
			}
		}
	}
	for _, t := range tp.Terms() {
		switch t.Op {
		case smt.OpConst:
			if c := t.Const; t.Width > 1 && !seenConst[c] {
				seenConst[c] = true
				pool = append(pool, c, c+1, c-1, c*2)
			}
		case smt.OpEq, smt.OpUlt, smt.OpUle, smt.OpSlt, smt.OpSle:
			x, y := t.Args[0], t.Args[1]
			if x.Op == smt.OpVar && y.IsConst() {
				suggest(x, y.Const)
			}
			if y.Op == smt.OpVar && x.IsConst() {
				suggest(y, x.Const)
			}
		}
	}

	rng := rand.New(rand.NewSource(int64(phi.ID)*2654435761 + 12345))
	for try := 0; try < tries+2*len(hints); try++ {
		pt.clear()
		for _, c := range inputClasses {
			var val uint32
			switch {
			case try == 0:
				val = 0
			case try == 1:
				val = 1
			case rng.Intn(3) == 0:
				val = rng.Uint32()
			default:
				val = pool[rng.Intn(len(pool))]
			}
			pt.set(c, val)
		}
		if try >= tries {
			// Hint rounds: pin one suggested class, vary the rest.
			h := hints[(try-tries)/2]
			pt.set(h.class, h.val)
		}
		pt.propagate()
		pt.tp.Run()
		if pt.tp.Value(pt.root) == 1 {
			if m := pt.model(); smt.Eval(phi, m) == 1 {
				return m, true
			}
		}
	}

	// Local search: pure sampling misses inputs that must satisfy several
	// guards at once; a short greedy repair loop over the inputs of
	// failing conjuncts (in the spirit of SLS tactics) closes most of the
	// gap.
	return pt.localSearch(phi, inputClasses, pool, find, rng)
}

// probeTape holds the probe's state on one compiled tape of phi. Alias
// classes are numbered densely; a class's value is kept as sampled (the
// model reports it so) and written, masked, into its members' variable
// slots. A definition reads the slots of its right-hand side and of its
// inverse chain's side operands, which its precomputed cone brings up to
// date.
type probeTape struct {
	tp      *smt.Tape
	root    int32
	class   map[*smt.Term]int // class representative -> index
	members [][]*smt.Term
	slots   [][]int32 // member variable slots per class
	val     []uint32
	defs    []*defn // nil for input classes
	deps    [][]int // classes each definition reads, in defn.deps order
	order   []int   // defined classes in dependency order
}

func newProbeTape(tp *smt.Tape, phi *smt.Term, members map[*smt.Term][]*smt.Term, defs map[*smt.Term]*defn, order []*smt.Term, find func(*smt.Term) *smt.Term) *probeTape {
	root, _ := tp.Slot(phi)
	pt := &probeTape{tp: tp, root: root, class: make(map[*smt.Term]int, len(members))}
	for r, ms := range members {
		pt.class[r] = len(pt.members)
		pt.members = append(pt.members, ms)
		sl := make([]int32, len(ms))
		for i, m := range ms {
			sl[i], _ = tp.Slot(m)
		}
		pt.slots = append(pt.slots, sl)
	}
	pt.val = make([]uint32, len(pt.members))
	pt.defs = make([]*defn, len(pt.members))
	pt.deps = make([][]int, len(pt.members))
	for r, d := range defs {
		c := pt.class[r]
		pt.defs[c] = d
		for _, dep := range d.deps {
			pt.deps[c] = append(pt.deps[c], pt.class[find(dep)])
		}
		roots := []*smt.Term{d.rhs}
		for i := range d.chain {
			if st := &d.chain[i]; st.other != nil {
				st.slot, _ = tp.Slot(st.other)
				roots = append(roots, st.other)
			}
		}
		d.rhsSlot, _ = tp.Slot(d.rhs)
		d.cone = tp.Cone(roots...)
	}
	for _, r := range order {
		pt.order = append(pt.order, pt.class[r])
	}
	return pt
}

// set gives class c the value v.
func (pt *probeTape) set(c int, v uint32) {
	pt.val[c] = v
	for _, s := range pt.slots[c] {
		pt.tp.Set(s, v)
	}
}

// clear starts a fresh assignment: defined classes read zero until
// propagation computes them, as unassigned variables do under Eval.
func (pt *probeTape) clear() {
	for _, c := range pt.order {
		pt.set(c, 0)
	}
}

// propagate computes the defined classes forward in dependency order; a
// second pass settles any residual cyclic orientation harmlessly.
func (pt *probeTape) propagate() {
	for pass := 0; pass < 2; pass++ {
		for _, c := range pt.order {
			pt.set(c, pt.eval(pt.defs[c]))
		}
	}
}

// eval computes the class value a definition implies: run its cone,
// read rhs, then apply the inverse of each recorded operator step
// outward-in.
func (pt *probeTape) eval(d *defn) uint32 {
	pt.tp.RunCone(d.cone)
	val := pt.tp.Value(d.rhsSlot)
	width := d.rhs.Width
	maskW := func(v uint32) uint32 {
		if width >= 32 {
			return v
		}
		return v & (1<<uint(width) - 1)
	}
	for _, st := range d.chain {
		switch st.op {
		case smt.OpNot:
			val = maskW(^val)
		case smt.OpNeg:
			val = maskW(-val)
		case smt.OpAdd:
			val = maskW(val - pt.tp.Value(st.slot))
		case smt.OpXor:
			val = maskW(val ^ pt.tp.Value(st.slot))
		case smt.OpSub:
			if st.otherOnLeft {
				// other - x = val  =>  x = other - val
				val = maskW(pt.tp.Value(st.slot) - val)
			} else {
				// x - other = val  =>  x = val + other
				val = maskW(val + pt.tp.Value(st.slot))
			}
		case smt.OpMul:
			val = maskW(val * st.mulInv)
		}
	}
	return val
}

// model returns the current value of every variable.
func (pt *probeTape) model() smt.Assignment {
	m := smt.Assignment{}
	for c, ms := range pt.members {
		for _, v := range ms {
			m[v] = pt.val[c]
		}
	}
	return m
}

// localSearch greedily repairs a random assignment: pick an unsatisfied
// conjunct, pick an input class it depends on, and move it to the value
// that satisfies the most conjuncts. Scoring an assignment is one tape
// run and a read of the conjuncts' slots.
func (pt *probeTape) localSearch(phi *smt.Term, inputs []int, pool []uint32, find func(*smt.Term) *smt.Term, rng *rand.Rand) (smt.Assignment, bool) {
	if len(inputs) == 0 {
		return nil, false
	}
	conjs := smt.Conjuncts(phi)
	if len(conjs) > 192 || len(conjs) < 2 {
		return nil, false // too big to afford, or nothing to repair against
	}
	conjSlots := make([]int32, len(conjs))
	for i, cj := range conjs {
		conjSlots[i], _ = pt.tp.Slot(cj)
	}

	// Per-conjunct input support, chasing definitions.
	supports := make([][]int, len(conjs))
	var classInputs func(c int, seen map[int]bool, out *[]int)
	classInputs = func(c int, seen map[int]bool, out *[]int) {
		if seen[c] {
			return
		}
		seen[c] = true
		if pt.defs[c] == nil {
			*out = append(*out, c)
			return
		}
		for _, dep := range pt.deps[c] {
			classInputs(dep, seen, out)
		}
	}
	supportOf := func(i int) []int {
		if supports[i] == nil {
			out := []int{}
			seen := map[int]bool{}
			for _, v := range smt.Vars(conjs[i]) {
				classInputs(pt.class[find(v)], seen, &out)
			}
			supports[i] = out
		}
		return supports[i]
	}
	score := func() int {
		pt.propagate()
		pt.tp.Run()
		n := 0
		for _, s := range conjSlots {
			if pt.tp.Value(s) == 1 {
				n++
			}
		}
		return n
	}

	for restart := 0; restart < 2; restart++ {
		pt.clear()
		for _, c := range inputs {
			pt.set(c, pool[rng.Intn(len(pool))])
		}
		cur := score()
		for move := 0; move < 25 && cur < len(conjs); move++ {
			// A random unsatisfied conjunct, under the current values.
			pt.tp.Run()
			bad := -1
			off := rng.Intn(len(conjs))
			for i := range conjs {
				if j := (i + off) % len(conjs); pt.tp.Value(conjSlots[j]) != 1 {
					bad = j
					break
				}
			}
			if bad < 0 {
				break
			}
			sup := supportOf(bad)
			if len(sup) == 0 {
				break // the conjunct does not depend on any input
			}
			c := sup[rng.Intn(len(sup))]
			old := pt.val[c]
			best, bestScore := old, cur
			for trial := 0; trial < 6; trial++ {
				var cand uint32
				switch trial {
				case 0:
					cand = old + 1
				case 1:
					cand = old - 1
				case 2:
					cand = 0
				default:
					cand = pool[rng.Intn(len(pool))]
				}
				pt.set(c, cand)
				if sc := score(); sc > bestScore {
					best, bestScore = cand, sc
				}
			}
			pt.set(c, best)
			pt.propagate()
			cur = bestScore
		}
		if cur == len(conjs) {
			if m := pt.model(); smt.Eval(phi, m) == 1 {
				return m, true
			}
		}
	}
	return nil, false
}

// defn is a definition "class = invert(chain, rhs)": evaluate rhs, then
// apply the inverse of each recorded operator step outward-in. rhsSlot
// and cone place it on the probe's tape.
type defn struct {
	rhs   *smt.Term
	chain []invStep
	// deps lists the variables the definition reads: those of rhs, then
	// those of each chain step's side operand.
	deps    []*smt.Term
	rhsSlot int32
	cone    []int32
}

// invStep records one peeled operator: the variable was inside op, with
// the other operand (nil for unary ops; at tape slot slot) on the given
// side.
type invStep struct {
	op          smt.Op
	other       *smt.Term
	slot        int32
	otherOnLeft bool
	mulInv      uint32 // modular inverse for odd multiplications
}

// solveToward peels invertible operators off t until a variable remains,
// returning the variable and the chain (outermost first).
func solveToward(t *smt.Term, depth int) (*smt.Term, []invStep, bool) {
	if depth > 32 {
		return nil, nil, false
	}
	switch t.Op {
	case smt.OpVar:
		return t, nil, true
	case smt.OpNot, smt.OpNeg:
		v, chain, ok := solveToward(t.Args[0], depth+1)
		if !ok {
			return nil, nil, false
		}
		return v, append([]invStep{{op: t.Op}}, chain...), true
	case smt.OpAdd, smt.OpXor:
		// Commutative: prefer the side that reaches a variable.
		for i := 0; i < 2; i++ {
			if v, chain, ok := solveToward(t.Args[i], depth+1); ok {
				st := invStep{op: t.Op, other: t.Args[1-i]}
				return v, append([]invStep{st}, chain...), true
			}
		}
	case smt.OpSub:
		for i := 0; i < 2; i++ {
			if v, chain, ok := solveToward(t.Args[i], depth+1); ok {
				st := invStep{op: t.Op, other: t.Args[1-i], otherOnLeft: i == 1}
				return v, append([]invStep{st}, chain...), true
			}
		}
	case smt.OpMul:
		for i := 0; i < 2; i++ {
			o := t.Args[1-i]
			if o.IsConst() && o.Const&1 == 1 {
				if v, chain, ok := solveToward(t.Args[i], depth+1); ok {
					st := invStep{op: smt.OpMul, mulInv: modInverse32(o.Const)}
					return v, append([]invStep{st}, chain...), true
				}
			}
		}
	}
	return nil, nil, false
}

// modInverse32 computes the inverse of odd a modulo 2^32.
func modInverse32(a uint32) uint32 {
	x := a
	for i := 0; i < 5; i++ {
		x *= 2 - a*x
	}
	return x
}
