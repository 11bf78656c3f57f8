package smt

import (
	"fmt"
	"sort"
)

// Tape is a term DAG compiled for repeated concrete evaluation. Every
// distinct sub-term gets a dense slot, the operators are laid out in
// topological order (operands before users), and values live in one
// []uint32, so an evaluation is a single pass with no maps and no
// allocation. Variables are the tape's inputs: Set assigns them and Run
// (or RunCone) computes everything above them. Values agree with Eval on
// every node: unassigned variables read zero, and the operators follow
// the same rules, x/0 and x%0 and over-wide shifts included.
type Tape struct {
	ops   []tapeOp
	args  []int32
	vals  []uint32
	terms []*Term
	slots map[*Term]int32
	// all lists every computed (non-leaf) slot in order: the cone of the
	// whole DAG.
	all []int32
	// mark and gen are Cone's visited set, reused across calls.
	mark []uint32
	gen  uint32
}

type tapeOp struct {
	op Op
	// width is the result width; argW the width of the first operand,
	// at which binary operators compute.
	width, argW uint8
	// lo and hi delimit the operand slots in args.
	lo, hi int32
}

// Compile lays out the DAG under t as a tape.
func Compile(t *Term) *Tape {
	tp := &Tape{slots: map[*Term]int32{}}
	var add func(t *Term) int32
	add = func(t *Term) int32 {
		if s, ok := tp.slots[t]; ok {
			return s
		}
		var buf [3]int32 // operators take at most three operands, and-or aside
		operands := buf[:0]
		for _, a := range t.Args {
			operands = append(operands, add(a))
		}
		o := tapeOp{op: t.Op, width: uint8(t.Width), lo: int32(len(tp.args))}
		if len(t.Args) > 0 {
			o.argW = uint8(t.Args[0].Width)
		}
		tp.args = append(tp.args, operands...)
		o.hi = int32(len(tp.args))
		s := int32(len(tp.ops))
		tp.ops = append(tp.ops, o)
		switch t.Op {
		case OpVar:
			tp.vals = append(tp.vals, 0)
		case OpConst:
			tp.vals = append(tp.vals, t.Const)
		case OpNot, OpNeg, OpAnd, OpOr, OpIte, OpXor, OpAdd, OpSub, OpMul,
			OpUDiv, OpURem, OpShl, OpLshr, OpEq, OpUlt, OpUle, OpSlt, OpSle:
			tp.vals = append(tp.vals, 0)
			tp.all = append(tp.all, s)
		default:
			panic(fmt.Sprintf("smt: tape: unhandled operator %s", t.Op))
		}
		tp.terms = append(tp.terms, t)
		tp.slots[t] = s
		return s
	}
	add(t)
	return tp
}

// Terms returns the compiled sub-terms by slot. Compile walks the DAG
// depth-first as Vars does, so the variables among them come in Vars's
// first-occurrence order, and so do the constants.
func (tp *Tape) Terms() []*Term { return tp.terms }

// Slot returns the slot of a sub-term of the compiled DAG; ok is false
// for a term outside it.
func (tp *Tape) Slot(t *Term) (slot int32, ok bool) {
	slot, ok = tp.slots[t]
	return slot, ok
}

// Set assigns a variable's slot, masking v to the variable's width as
// Eval does.
func (tp *Tape) Set(slot int32, v uint32) {
	tp.vals[slot] = mask(v, int(tp.ops[slot].width))
}

// Value returns the value a slot holds after the last run that covered
// it.
func (tp *Tape) Value(slot int32) uint32 { return tp.vals[slot] }

// Run evaluates the whole DAG under the current variable values.
func (tp *Tape) Run() { tp.RunCone(tp.all) }

// Cone returns the computed slots the given sub-terms depend on, in
// evaluation order; RunCone on it brings exactly those terms up to date
// with the current variable values.
func (tp *Tape) Cone(roots ...*Term) []int32 {
	if tp.mark == nil {
		tp.mark = make([]uint32, len(tp.ops))
	}
	tp.gen++
	var out, stack []int32
	for _, r := range roots {
		stack = append(stack, tp.slots[r])
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if tp.mark[s] == tp.gen {
			continue
		}
		tp.mark[s] = tp.gen
		o := tp.ops[s]
		if o.op == OpVar || o.op == OpConst {
			continue
		}
		out = append(out, s)
		stack = append(stack, tp.args[o.lo:o.hi]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RunCone evaluates the given computed slots, in order.
func (tp *Tape) RunCone(cone []int32) {
	vals := tp.vals
	for _, s := range cone {
		o := &tp.ops[s]
		a := tp.args[o.lo:o.hi]
		var v uint32
		switch o.op {
		case OpNot:
			v = mask(^vals[a[0]], int(o.width))
		case OpNeg:
			v = mask(-vals[a[0]], int(o.width))
		case OpAnd:
			v = mask(^uint32(0), int(o.width))
			for _, x := range a {
				v &= vals[x]
			}
		case OpOr:
			for _, x := range a {
				v |= vals[x]
			}
		case OpIte:
			if vals[a[0]] == 1 {
				v = vals[a[1]]
			} else {
				v = vals[a[2]]
			}
		default:
			v, _ = foldBinary(o.op, vals[a[0]], vals[a[1]], int(o.argW))
		}
		vals[s] = v
	}
}
