package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"fusion/internal/checker"
	"fusion/internal/driver"
	"fusion/internal/engines"
	"fusion/internal/progen"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	c1 := Cost{Engine: "fusion", Subject: "mcf", Time: 1234 * time.Millisecond, Reports: 3, Unknown: 1}
	c2 := Cost{Engine: "fusion", Subject: "bzip2", Time: 17 * time.Millisecond, Degraded: 2}
	k1, d1 := j.Key("run one")
	k2, d2 := j.Key("run two")
	if k1 == k2 {
		t.Fatal("distinct descriptions share a key")
	}
	if err := j.Record(k1, d1, c1); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(k2, d2, c2); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Fatalf("reloaded %d records, want 2", j2.Len())
	}
	got, ok := j2.Lookup(k1)
	if !ok || !reflect.DeepEqual(got, c1) {
		t.Errorf("replayed cost differs: %+v vs %+v", got, c1)
	}
	// A resumed process issues the same key sequence: occurrence counters
	// restart with the process, not with the file.
	if rk, _ := j2.Key("run one"); rk != k1 {
		t.Errorf("resumed key %s != original %s", rk, k1)
	}
}

// TestJournalOccurrenceCounter: the same run description keyed twice in
// one process gets distinct keys in issue order (ablation sweeps re-run
// identical configurations), and a resumed process reproduces the same
// sequence.
func TestJournalOccurrenceCounter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	ka, da := j.Key("same desc")
	kb, db := j.Key("same desc")
	if ka == kb || da == db {
		t.Fatalf("repeated description must get fresh keys: %s/%s", ka, kb)
	}
}

// TestJournalTornTailDropped: a record torn by a mid-write crash is
// dropped on load — and truncated away, so records appended by the
// resumed run land after the last whole one.
func TestJournalTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	k1, d1 := j.Key("one")
	if err := j.Record(k1, d1, Cost{Reports: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"deadbeef","desc":"torn`) // no closing quote, no newline
	f.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 1 {
		t.Fatalf("torn journal loaded %d records, want 1", j2.Len())
	}
	if _, ok := j2.Lookup("deadbeef"); ok {
		t.Error("torn record survived")
	}
	k2, d2 := j2.Key("two")
	if err := j2.Record(k2, d2, Cost{Reports: 2}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 2 {
		t.Fatalf("after resume past a torn tail: %d records, want 2", j3.Len())
	}
}

// TestRunBudgetReplaysFromJournal: the second process replays a run the
// first completed — same Cost, recorded wall time included, so resumed
// table rows render byte-identical — without re-running the engine.
func TestRunBudgetReplaysFromJournal(t *testing.T) {
	ctx := context.Background()
	sub, err := Compile(ctx, progen.Subjects[5], 0.02, driver.AbsintOff)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	budget := Budget{Time: 2 * time.Minute, CondBytes: 1 << 30}

	runOnce := func() Cost {
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		o := Options{Absint: driver.AbsintOff, Scale: 0.02, Budget: budget, Journal: j, Experiment: "test"}
		return o.run(ctx, sub, checker.NullDeref(), engines.NewFusion())
	}
	live := runOnce()
	start := time.Now()
	replayed := runOnce()
	replayTook := time.Since(start)

	if !reflect.DeepEqual(live, replayed) {
		t.Errorf("replayed cost differs from live:\n%+v\nvs\n%+v", replayed, live)
	}
	if live.Time > 0 && replayTook > live.Time/2 && replayTook > 5*time.Second {
		t.Errorf("replay took %v against a live run of %v: did it re-solve?", replayTook, live.Time)
	}
}

// TestRunBudgetNeverRecordsCancelledRuns: a run cut short by
// cancellation must not checkpoint its partial Unknown verdicts as the
// real result.
func TestRunBudgetNeverRecordsCancelledRuns(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := Compile(context.Background(), progen.Subjects[5], 0.02, driver.AbsintOff)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // already cancelled before the run starts
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Absint: driver.AbsintOff, Scale: 0.02, Budget: Budget{Time: time.Minute, CondBytes: 1 << 30},
		Journal: j, Experiment: "test"}
	o.run(ctx, sub, checker.NullDeref(), engines.NewFusion())
	j.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 0 {
		t.Errorf("cancelled run checkpointed %d record(s)", j2.Len())
	}
}

// TestJournalKeysFollowAbsintMode: a fused run's journal key carries the
// absint mode its program was compiled with, so the five -absint modes
// never replay each other's records, while the worker count and the
// retry height — which may only change cost — stay out of the key.
func TestJournalKeysFollowAbsintMode(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	key := func(mode driver.AbsintMode, workers, retries int) string {
		t.Helper()
		sub, err := Compile(ctx, progen.Subjects[0], 0.01, mode)
		if err != nil {
			t.Fatal(err)
		}
		// A fresh journal per key, so every key is its description's
		// first occurrence.
		j, err := OpenJournal(filepath.Join(dir, fmt.Sprintf("%s-%d-%d.jsonl", mode, workers, retries)))
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		o := Options{Absint: mode, Scale: 0.01, Workers: workers, Retries: retries,
			Budget: Budget{Time: time.Minute, CondBytes: 1 << 30}, Journal: j, Experiment: "test"}
		k, _ := j.Key(o.runDesc(sub, checker.NullDeref(), o.fusion(), o.Budget))
		return k
	}
	seen := map[string]driver.AbsintMode{}
	for _, mode := range ablationModes {
		k := key(mode, 1, 0)
		if prev, dup := seen[k]; dup {
			t.Errorf("modes %s and %s share journal key %s", prev, mode, k)
		}
		seen[k] = mode
		for _, cfg := range [][2]int{{8, 0}, {1, 2}, {8, 2}} {
			if got := key(mode, cfg[0], cfg[1]); got != k {
				t.Errorf("mode %s: workers=%d retries=%d changed the key: %s vs %s", mode, cfg[0], cfg[1], got, k)
			}
		}
	}
}
