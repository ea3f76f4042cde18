package main

import (
	"errors"
	"fmt"

	"sinrconn"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
)

// checkTree re-validates a schedule handed out through a public surface
// (Result.Tree.Up, or the wire's tree) against the contract of the pipeline
// that built it: a spanning tree over all of in's nodes, strongly connected,
// every slot SINR-feasible under the stamped powers (within the far plan's
// guard band when far is non-nil) and, when ordered, the bi-tree
// aggregation ordering. RescheduleMean is checked with ordered = false:
// Theorem 3 does not promise ordering, but feasibility is never skipped.
func checkTree(in *sinr.Instance, far sinr.Far, root int, up []sinrconn.ScheduledLink, ordered bool) error {
	bt := &tree.BiTree{Root: root, Nodes: make([]int, in.Len())}
	for v := range bt.Nodes {
		bt.Nodes[v] = v
	}
	bt.Up = make([]tree.TimedLink, len(up))
	for i, l := range up {
		bt.Up[i] = tree.TimedLink{L: sinr.Link{From: l.From, To: l.To}, Slot: l.Slot, Power: l.Power}
	}
	if err := bt.Validate(); err != nil {
		return err
	}
	if !bt.StronglyConnected() {
		return errors.New("tree not strongly connected")
	}
	if ordered {
		if err := bt.ValidateOrdering(); err != nil {
			return err
		}
	}
	return bt.ValidatePerSlotFeasibleFar(in, far)
}

// checkResult checks one pipeline result: the rebuilt-tree contract check,
// the library's own Verify on ordered pipelines, and the consistency of the
// reported metrics with the schedule.
func checkResult(in *sinr.Instance, far sinr.Far, p sinrconn.Pipeline, r *sinrconn.Result) error {
	if r.Tree.NumNodes != in.Len() {
		return fmt.Errorf("%v: tree spans %d of %d nodes", p, r.Tree.NumNodes, in.Len())
	}
	if err := checkTree(in, far, r.Tree.Root, r.Tree.Up, p.Ordered()); err != nil {
		return fmt.Errorf("%v: %w", p, err)
	}
	if p.Ordered() {
		if err := r.Tree.Verify(); err != nil {
			return fmt.Errorf("%v: Verify: %w", p, err)
		}
		if r.Metrics.AggregationLatency <= 0 {
			return fmt.Errorf("%v: no aggregation latency", p)
		}
	}
	if got := distinctSlots(r.Tree.Up); got != r.Metrics.ScheduleLength {
		return fmt.Errorf("%v: schedule length %d but %d distinct slots", p, r.Metrics.ScheduleLength, got)
	}
	if r.Metrics.SlotsUsed <= 0 {
		return fmt.Errorf("%v: no construction slots", p)
	}
	return nil
}

func distinctSlots(up []sinrconn.ScheduledLink) int {
	seen := make(map[int]bool, len(up))
	for _, l := range up {
		seen[l.Slot] = true
	}
	return len(seen)
}

// farPlan resolves the far-field plan a session opened with
// WithMaxRelError(eps) and the default FarAuto mode runs under: the
// quadtree with adaptive per-slot selection, or exact when the plan is
// near-dominated. eps = 0 is exact.
func farPlan(in *sinr.Instance, eps float64) (far sinr.Far, adaptive bool, err error) {
	if eps == 0 {
		return nil, false, nil
	}
	q, err := in.QuadTree(eps)
	if err != nil {
		return nil, false, err
	}
	if q.NearDominated() {
		return nil, false, nil
	}
	return q, true, nil
}
