package smt

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

var tapeWidths = [...]int{1, 8, 16, 32}

// checkTapeAgainstEval builds a random term DAG from data — every
// operator at widths 1, 8, 16 and 32, with zero divisors and shift
// amounts at or past the width in reach — compiles it, and requires the
// tape's value of every node to equal Eval's, first for a full run and
// then for a cone run after the variables change.
func checkTapeAgainstEval(t *testing.T, data []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	b := NewBuilder()
	pools := map[int][]*Term{}
	for _, w := range tapeWidths {
		x, y := b.Var(fmt.Sprintf("x%d", w), w), b.Var(fmt.Sprintf("y%d", w), w)
		pools[w] = append(pools[w], x, y, b.Const(0, w), b.Const(uint32(w), w), b.Const(^uint32(0), w))
	}
	pick := func(w int) *Term {
		p := pools[w]
		return p[int(next())%len(p)]
	}
	var built []*Term
	for n := 4 + int(next())%60; n > 0; n-- {
		w := tapeWidths[int(next())%len(tapeWidths)]
		op := OpNot + Op(int(next())%int(OpIte-OpNot+1))
		var x *Term
		switch op {
		case OpNot, OpNeg:
			x = Rebuild(b, op, w, []*Term{pick(w)})
		case OpAnd, OpOr:
			x = Rebuild(b, op, w, []*Term{pick(w), pick(w), pick(w)})
		case OpIte:
			x = b.Ite(pick(1), pick(w), pick(w))
		default:
			x = Rebuild(b, op, w, []*Term{pick(w), pick(w)})
		}
		pools[x.Width] = append(pools[x.Width], x)
		built = append(built, x)
	}
	// Tie every built term into one width-1 root; xor neither flattens
	// nor drops a non-constant operand.
	root := b.False()
	for _, x := range built {
		if x.Width != 1 {
			x = b.Ult(x, b.Var(fmt.Sprintf("probe%d", x.Width), x.Width))
		}
		root = b.Xor(root, x)
	}

	value := func() uint32 {
		switch next() % 5 {
		case 0:
			return 0
		case 1:
			return uint32(tapeWidths[int(next())%len(tapeWidths)]) + uint32(next()%3)
		case 2:
			return ^uint32(0)
		default:
			var buf [4]byte
			for i := range buf {
				buf[i] = next()
			}
			return binary.LittleEndian.Uint32(buf[:])
		}
	}
	tp := Compile(root)
	asg := Assignment{}
	assign := func() {
		for _, v := range Vars(root) {
			asg[v] = value() // unmasked on purpose: both sides mask
			s, _ := tp.Slot(v)
			tp.Set(s, asg[v])
		}
	}
	var nodes []*Term
	seen := map[*Term]bool{}
	var walk func(*Term)
	walk = func(x *Term) {
		if seen[x] {
			return
		}
		seen[x] = true
		for _, a := range x.Args {
			walk(a)
		}
		nodes = append(nodes, x)
	}
	walk(root)

	assign()
	tp.Run()
	for _, x := range nodes {
		s, ok := tp.Slot(x)
		if !ok {
			t.Fatalf("node %v has no slot", x)
		}
		if got, want := tp.Value(s), Eval(x, asg); got != want {
			t.Fatalf("tape %#x, Eval %#x for %v under %v", got, want, x, asg)
		}
	}

	assign()
	sub := nodes[int(next())%len(nodes)]
	tp.RunCone(tp.Cone(sub))
	s, _ := tp.Slot(sub)
	if got, want := tp.Value(s), Eval(sub, asg); got != want {
		t.Fatalf("cone run %#x, Eval %#x for %v under %v", got, want, sub, asg)
	}
}

func FuzzTapeMatchesEval(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 256)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Fuzz(checkTapeAgainstEval)
}

// TestTapeMatchesEval runs the differential check over a fixed sample of
// random inputs, so a plain go test covers far more than the fuzz seeds.
func TestTapeMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 512)
	for i := 0; i < 3000; i++ {
		rng.Read(data)
		checkTapeAgainstEval(t, data)
	}
}
