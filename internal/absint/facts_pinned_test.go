package absint_test

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"fusion/internal/driver"
	"fusion/internal/progen"
)

// pinnedAbsintFacts is the digest TestAbsintFactsPinned computes. It was
// recorded when the zone was still rebuilt in every call-site
// instantiation; recording it once per function in the record pass must
// leave every fact unchanged.
const pinnedAbsintFacts = "5e91cb638c9c37de"

// TestAbsintFactsPinned digests every vertex's interval, stride and
// annotation (which carries its zone facts), plus Stats, over the
// generated subjects with the full product. A change to the analysis
// that loses (or gains) a single fact anywhere moves the digest.
func TestAbsintFactsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles all sixteen subjects")
	}
	h := fnv.New64a()
	for _, s := range progen.Subjects {
		src, _, _ := s.Build(0.002)
		p, err := driver.Compile(context.Background(), driver.Source{Name: s.Name, Text: src},
			driver.Options{Absint: driver.AbsintOn})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		a := p.Absint()
		if a == nil {
			t.Fatalf("%s: no analysis", s.Name)
		}
		fmt.Fprintf(h, "subject %s %+v\n", s.Name, a.Stats)
		names := make([]string, 0, len(p.Graph.Prog.Funcs))
		for name := range p.Graph.Prog.Funcs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, v := range p.Graph.Prog.Funcs[name].Values {
				iv, okI := a.IntervalOf(v)
				st, okS := a.StrideOf(v)
				fmt.Fprintf(h, "%s v%d %+v %v %+v %v %q\n", name, v.ID, iv, okI, st, okS, a.Annotation(v))
			}
		}
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != pinnedAbsintFacts {
		t.Errorf("absint facts digest %s, want %s", got, pinnedAbsintFacts)
	}
}
