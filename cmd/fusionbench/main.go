// Command fusionbench regenerates the paper's tables and figures on the
// synthetic subject suite. See EXPERIMENTS.md for the experiment index.
//
// Usage:
//
//	fusionbench [-experiment NAME|all] [-scale F] [-subjects a,b,c] [-budget D]
//	            [-workers N] [-timeout D] [-absint MODE] [-session on|off] [-fail-fast]
//	            [-retries N] [-watchdog-grace D] [-checkpoint FILE [-resume]]
//	            [-metrics FILE] [-trace FILE] [-pprof-addr ADDR]
//
// Exit status: 0 when every experiment ran to completion, 1 on a harness
// error, 2 on bad usage or when any engine run contained a unit crash.
// Expected budget exhaustion (the "time out" / "memory out" rows of the
// tables — the QE/AR variants are supposed to hit them) is part of a
// normal run and does not affect the exit status.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fusion/internal/bench"
	"fusion/internal/driver"
	"fusion/internal/failure"
	"fusion/internal/faultinject"
	"fusion/internal/progen"
	"fusion/internal/telemetry"
)

func main() {
	exp := flag.String("experiment", "all", "experiment to run: "+strings.Join(bench.ExperimentNames, ", ")+", or all")
	scale := flag.Float64("scale", 0.002, "scale factor applied to the paper's subject sizes")
	subjects := flag.String("subjects", "", "comma-separated subject names (default: per experiment)")
	budget := flag.Duration("budget", 5*time.Minute, "per-engine-run time budget")
	smt2dir := flag.String("smt2dir", "", "dump every SMT instance as SMT-LIB v2 files into this directory and exit")
	workers := flag.Int("workers", 0, "worker count for compilation, enumeration, and checking (0 = sequential; output is identical for any count)")
	timeout := flag.Duration("timeout", 0, "overall wall-clock budget for the whole invocation (0 = none)")
	absint := flag.String("absint", "on", "abstract-interpretation tier in the fused engine: on (intervals × stride + zone), nostride (congruence disabled), nosimplify (formula pre-simplification disabled), intervals (zone and stride disabled), or off")
	session := flag.String("session", "on", "warm incremental solver sessions: on (per-worker sessions reuse learned clauses and term encodings) or off (every query solves one-shot — the oracle)")
	failFast := flag.Bool("fail-fast", false, "stop after the first experiment whose runs contained a unit crash (default: run all experiments, summarize at the end)")
	retries := flag.Int("retries", 0, "re-run a candidate whose attempt crashed or was abandoned up to N times, escalating from the warm session to a fresh cold session to a one-shot solve (0 = single attempt)")
	watchdogGrace := flag.Duration("watchdog-grace", 0, "hard-abandon a candidate whose solver heartbeat stays flat this long at or past its deadline (0 = watchdog off)")
	checkpoint := flag.String("checkpoint", "", "journal completed engine runs to this file (append-only JSONL, fsync'd per record) so a crashed invocation can resume")
	resume := flag.Bool("resume", false, "replay runs a previous crashed invocation completed in the -checkpoint journal instead of re-running them")
	metrics := flag.String("metrics", "", "write a stable-ordered JSON metrics snapshot (counters, sched, wall_ns) to this file")
	trace := flag.String("trace", "", "write a Chrome trace-event JSON file (load in Perfetto or chrome://tracing) to this file")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060) for live profiling")
	flag.Parse()
	if err := faultinject.ArmFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "fusionbench:", err)
		os.Exit(2)
	}
	mode, err := driver.ParseAbsintMode(*absint)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fusionbench:", err)
		os.Exit(2)
	}
	if *session != "on" && *session != "off" {
		fmt.Fprintf(os.Stderr, "fusionbench: -session must be on or off, got %q\n", *session)
		os.Exit(2)
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "fusionbench: -resume requires -checkpoint")
		os.Exit(2)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var unitFailures []*failure.UnitFailure
	opts := bench.Options{
		Scale:     *scale,
		Budget:    bench.Budget{Time: *budget, CondBytes: 2 << 30},
		Workers:   *workers,
		Absint:    mode,
		NoSession: *session == "off",
		OnCost: func(c bench.Cost) {
			unitFailures = append(unitFailures, c.Failures...)
		},
		Retries:       *retries,
		WatchdogGrace: *watchdogGrace,
	}
	var rec *telemetry.Recorder
	if *metrics != "" || *trace != "" {
		rec = telemetry.New()
		opts.Telemetry = rec
	}
	if *pprofAddr != "" {
		if err := telemetry.EnablePprof(*pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, "fusionbench:", err)
			os.Exit(2)
		}
	}
	if *metrics != "" || *trace != "" || *pprofAddr != "" {
		// SIGUSR1 dumps heap and goroutine profiles whenever any
		// observability surface is requested.
		telemetry.DumpOnSignal("")
	}
	// Artifacts are written on every exit path past this point — an
	// impaired run's partial trace is exactly what one wants to look at.
	writeArtifacts := func() {
		if rec == nil {
			return
		}
		if *metrics != "" {
			if err := rec.WriteMetrics(*metrics); err != nil {
				fmt.Fprintln(os.Stderr, "fusionbench:", err)
			}
		}
		if *trace != "" {
			if err := rec.WriteTrace(*trace); err != nil {
				fmt.Fprintln(os.Stderr, "fusionbench:", err)
			}
		}
	}
	if *checkpoint != "" {
		if !*resume {
			// A fresh run must not replay a stale journal for a different
			// configuration; truncate and start over.
			if err := os.Truncate(*checkpoint, 0); err != nil && !os.IsNotExist(err) {
				fmt.Fprintln(os.Stderr, "fusionbench:", err)
				os.Exit(1)
			}
		}
		j, err := bench.OpenJournal(*checkpoint)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fusionbench:", err)
			os.Exit(1)
		}
		defer j.Close()
		opts.Journal = j
		if *resume && (j.Len() > 0 || j.Units() > 0) {
			fmt.Fprintf(os.Stderr, "fusionbench: resuming: %d completed run(s), %d unit record(s) in %s\n",
				j.Len(), j.Units(), *checkpoint)
		}
	}
	if *subjects != "" {
		for _, name := range strings.Split(*subjects, ",") {
			s, err := progen.SubjectByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "fusionbench:", err)
				os.Exit(2)
			}
			opts.Subjects = append(opts.Subjects, s)
		}
	}

	if *smt2dir != "" {
		if err := os.MkdirAll(*smt2dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "fusionbench:", err)
			os.Exit(1)
		}
		n, err := bench.DumpSMT2(ctx, opts, *smt2dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fusionbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d SMT-LIB instances to %s\n", n, *smt2dir)
		return
	}

	names := bench.ExperimentNames
	if *exp != "all" {
		if bench.Experiments[*exp] == nil {
			fmt.Fprintf(os.Stderr, "fusionbench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		names = []string{*exp}
	}
	for _, name := range names {
		start := time.Now()
		opts.Experiment = name
		out, err := bench.Experiments[name](ctx, opts)
		if err != nil {
			writeArtifacts()
			fmt.Fprintf(os.Stderr, "fusionbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s (ran in %.1fs) ===\n%s\n", name, time.Since(start).Seconds(), out)
		if *failFast && len(unitFailures) > 0 {
			fmt.Fprintf(os.Stderr, "fusionbench: fail-fast: stopping after %s\n", name)
			break
		}
	}
	writeArtifacts()
	if len(unitFailures) > 0 {
		fmt.Fprintf(os.Stderr, "fusionbench: %d contained unit crash(es):\n", len(unitFailures))
		for _, f := range unitFailures {
			fmt.Fprintf(os.Stderr, "  %s [%s %s] %v\n", f.Unit, f.Stage, f.Digest(), f.Value)
		}
		os.Exit(2)
	}
}
