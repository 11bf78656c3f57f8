// Enginecompare: generate one synthetic subject and run the fused engine
// against the conventional one and the path-insensitive one, comparing
// time, retained condition memory, and report quality against the injected
// ground truth — a miniature of the paper's Tables 3 and 5.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"

	"fusion/internal/bench"
	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/progen"
)

func main() {
	ctx := context.Background()

	// The "gap" subject from Table 2, scaled down to run in seconds.
	info, err := progen.SubjectByName("gap")
	if err != nil {
		log.Fatal(err)
	}
	// Compiled without the absint tier, so Fusion solves every query.
	sub, err := bench.Compile(ctx, info, 0.05, driver.AbsintOff)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("subject %s: %d lines, %d functions, %d PDG vertices, %d injected bugs\n\n",
		info.Name, sub.GenLines, sub.Stats.Functions, sub.Stats.Vertices, len(sub.GT.Bugs))

	spec := checker.NullDeref()
	t := &bench.Table{
		Header: []string{"Engine", "Time", "Cond-Mem", "#Report", "#TP", "#FP"},
	}
	workers := runtime.NumCPU()
	for _, eng := range []engines.Engine{
		engines.NewFusion(),
		engines.NewPinpoint(engines.Plain),
		engines.NewInfer(),
	} {
		// Enumeration and checking fan out over every core; the verdicts
		// (and so this table) are identical to a sequential run.
		c := bench.RunWorkers(ctx, sub, spec, eng, bench.Budget{}, workers)
		t.AddRow(c.Engine,
			fmt.Sprintf("%.3fs", c.Time.Seconds()),
			fmt.Sprintf("%.2fMB", c.CondMB),
			fmt.Sprintf("%d", c.Reports),
			fmt.Sprintf("%d", c.TP),
			fmt.Sprintf("%d", c.FP))
	}
	fmt.Println(t)
	fmt.Println("The fused engine matches the conventional engine's reports at a")
	fmt.Println("fraction of the cost; the path-insensitive engine reports the")
	fmt.Println("injected infeasible bugs too (false positives).")
}
