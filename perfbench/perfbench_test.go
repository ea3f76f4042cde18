package main

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"

	"sinrconn"
	"sinrconn/internal/sinr"
)

var smokeWorkloads = []string{"build", "build-far", "churn", "serve"}

func runTiny(t *testing.T, workload string, trace bool) *env {
	t.Helper()
	e, err := run(config{workload: workload, seed: 3, seconds: runSeconds, trace: trace, tiny: true})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if e.failed != 0 || e.attempted == 0 {
		t.Fatalf("%s: %d of %d failed:\n%s", workload, e.failed, e.attempted, strings.Join(e.lines, "\n"))
	}
	if len(e.counts) == 0 {
		t.Fatalf("%s: no counts recorded", workload)
	}
	return e
}

// Two runs of one workload and seed do identical simulated work.
func TestRunsRepeatCounts(t *testing.T) {
	for _, w := range smokeWorkloads {
		a, b := runTiny(t, w, false), runTiny(t, w, false)
		if diffs := compareCounts(a.counts, b.counts); len(diffs) > 0 || len(a.counts) != len(b.counts) {
			t.Errorf("%s: counts differ between runs: %v", w, diffs)
		}
	}
}

// A traced run checks itself against its untraced pass; its counts must
// also match a separate untraced run, and every per-layer metric that a
// workload exercises must be reported.
func TestTracedRunAgreesWithUntraced(t *testing.T) {
	for _, w := range smokeWorkloads {
		plain, traced := runTiny(t, w, false), runTiny(t, w, true)
		if diffs := compareCounts(plain.counts, traced.counts); len(diffs) > 0 {
			t.Errorf("%s: traced counts differ: %v", w, diffs)
		}
		if len(traced.counts) <= len(plain.counts) && w != "serve" {
			t.Errorf("%s: traced run added no slot counts", w)
		}
		for _, m := range []string{"go.mallocs_per_op", "trace.coverage"} {
			if traced.layer[m] <= 0 {
				t.Errorf("%s: %s = %v", w, m, traced.layer[m])
			}
		}
	}
}

// The result check bites: a tree with two links into one receiver stamped
// into the same slot is rejected on feasibility alone, with the ordering
// check off, while the untouched tree passes.
func TestCheckRejectsConflictingSlot(t *testing.T) {
	pts, g := points(5, 64)
	nw, err := sinrconn.Open(pts, sinrconn.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	r, err := nw.Run(context.Background(), sinrconn.PipelineInit, sinrconn.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	in, err := sinr.NewInstance(g, sinr.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(in, nil, sinrconn.PipelineInit, r); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	up := append([]sinrconn.ScheduledLink(nil), r.Tree.Up...)
	first := map[int]int{}
	corrupted := false
	for i, l := range up {
		if j, ok := first[l.To]; ok {
			up[i].Slot = up[j].Slot
			corrupted = true
			break
		}
		first[l.To] = i
	}
	if !corrupted {
		t.Fatal("no node with two children to corrupt")
	}
	if err := checkTree(in, nil, r.Tree.Root, up, false); err == nil {
		t.Fatal("two links into one receiver in one slot passed the check")
	}
}

// The cross-run gate stores counts and refuses a run whose counts differ.
func TestCountGate(t *testing.T) {
	dir := t.TempDir()
	cfg := config{workload: "build", seed: 1, seconds: 1}
	if err := gateCounts(dir, cfg, countSet{"a": 1, "b": 2}); err != nil {
		t.Fatal(err)
	}
	if err := gateCounts(dir, cfg, countSet{"a": 1, "b": 2, "c": 3}); err != nil {
		t.Fatalf("matching counts refused: %v", err)
	}
	if err := gateCounts(dir, cfg, countSet{"c": 4}); err == nil {
		t.Fatal("differing count accepted")
	}
}

// BENCHMARK.json is generated from this package's tables.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json is stale: regenerate with `bash perfbench/run.sh --emit-spec > BENCHMARK.json`")
	}
}
