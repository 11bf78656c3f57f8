package bench

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fusion/internal/driver"
	"fusion/internal/progen"
)

var updateBaseline = flag.Bool("update", false, "rewrite testdata/absint_baseline.json from the current run")

// ablationBaseline is the committed floor for the abstract-interpretation
// tier's decision rates on a pinned subject configuration. CI fails when a
// change makes the tier decide (or prune) fewer queries than the baseline:
// precision regressions must be explicit, by re-committing the file.
type ablationBaseline struct {
	Scale    float64                 `json:"scale"`
	Subjects []string                `json:"subjects"`
	Modes    map[string]baselineMode `json:"modes"`
}

type baselineMode struct {
	Decided    int `json:"decided"`
	Stride     int `json:"stride"`
	Zone       int `json:"zone"`
	Pruned     int `json:"pruned"`
	Simplified int `json:"simplified"`
	// CacheHits totals the warm solver sessions' cross-query term reuse.
	// The baseline run is sequential, so the count is deterministic; a
	// drop below the committed floor means session reuse regressed.
	CacheHits int64 `json:"cacheHits"`
}

const baselinePath = "testdata/absint_baseline.json"

func baselineOpts(bl ablationBaseline, t *testing.T) Options {
	opts := Options{
		Absint: driver.AbsintOff,
		Scale:  bl.Scale,
		Budget: Budget{Time: 2 * time.Minute, CondBytes: 1 << 30},
	}
	for _, name := range bl.Subjects {
		s, err := progen.SubjectByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opts.Subjects = append(opts.Subjects, s)
	}
	return opts
}

// TestAblationBaseline is the absint ablation smoke: it runs the fused
// engine in all five tier modes (off, intervals, nostride, nosimplify,
// on) on a pinned subject set, requires the report sets to be identical,
// and compares the tier's decision rates against the committed baseline.
// Regenerate the baseline with:
// go test ./internal/bench -run TestAblationBaseline -update
func TestAblationBaseline(t *testing.T) {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatalf("missing committed baseline: %v", err)
	}
	var bl ablationBaseline
	if err := json.Unmarshal(data, &bl); err != nil {
		t.Fatalf("bad baseline: %v", err)
	}

	costs, identical, err := ablationCosts(context.Background(), baselineOpts(bl, t))
	if err != nil {
		t.Fatal(err)
	}
	if !identical {
		t.Error("report sets differ across absint modes: the tier changed reports")
	}
	got := map[string]baselineMode{}
	for _, c := range costs {
		if c.Failed {
			t.Fatalf("%s/%s/%s: run failed: %s", c.Subject, c.Checker, c.Mode, c.FailNote)
		}
		m := got[c.Mode]
		m.Decided += c.AbsintDecided
		m.Stride += c.AbsintStride
		m.Zone += c.AbsintZone
		m.Pruned += c.AbsintPruned
		m.Simplified += c.Simplified
		m.CacheHits += c.CacheHits
		got[c.Mode] = m
	}

	if *updateBaseline {
		bl.Modes = got
		out, err := json.MarshalIndent(bl, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(baselinePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselinePath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("baseline updated: %+v", got)
		return
	}

	// Structural sanity: modes behave as configured.
	if m := got["off"]; m.Decided != 0 || m.Stride != 0 || m.Zone != 0 || m.Pruned != 0 || m.Simplified != 0 {
		t.Errorf("off mode fired: %+v", m)
	}
	if m := got["intervals"]; m.Stride != 0 || m.Zone != 0 {
		t.Errorf("intervals mode made stride or zone decisions: %+v", m)
	}
	if got["nostride"].Stride != 0 {
		t.Errorf("nostride mode made stride decisions: %+v", got["nostride"])
	}
	if got["nosimplify"].Simplified != 0 {
		t.Errorf("nosimplify mode pre-simplified formulas: %+v", got["nosimplify"])
	}
	if got["on"].Simplified == 0 {
		t.Error("pre-simplification never folded a vertex on the baseline subjects")
	}
	if got["on"].Stride == 0 {
		t.Error("stride tier never decided a query on the baseline subjects")
	}
	if got["on"].Zone == 0 {
		t.Error("zone tier never decided a query on the baseline subjects")
	}
	if got["off"].CacheHits == 0 {
		t.Error("warm sessions never reused a term encoding on the baseline subjects")
	}
	// Regression floor: each mode must decide and prune at least as many
	// queries as the committed baseline.
	for mode, want := range bl.Modes {
		g := got[mode]
		if g.Decided < want.Decided || g.Stride < want.Stride ||
			g.Zone < want.Zone || g.Pruned < want.Pruned ||
			g.Simplified < want.Simplified || g.CacheHits < want.CacheHits {
			t.Errorf("%s: decision rate regressed: got %+v, baseline %+v", mode, g, want)
		}
	}
}
