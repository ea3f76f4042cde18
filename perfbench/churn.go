package main

import (
	"context"
	"runtime"
	"time"

	"sinrconn"
	"sinrconn/internal/churn"
	"sinrconn/internal/geom"
	"sinrconn/internal/sinr"
)

// churnGeometrySeed fixes the churn deployment. Unlike the builds, churn
// does not draw its inputs from the workload seed: one trace's cost depends
// chaotically on the geometry and trace seed (10-event traces at n = 1024
// measured 47 to 1151 ms per event), so seeded inputs could not repeat
// within any useful bound. Every run does the same work.
const churnGeometrySeed = 1

// churnTrace is the i-th fixed trace: the event mix of the repository's
// churn benchmark (join 1, fail 1.2, burst 0.25, shower 0.5, random-waypoint
// move 1).
func churnTrace(i, events int) sinrconn.TraceSpec {
	return sinrconn.TraceSpec{
		Seed:       int64(i + 1),
		Events:     events,
		JoinRate:   1,
		FailRate:   1.2,
		BurstRate:  0.25,
		ShowerRate: 0.5,
		MoveRate:   1,
		Mobility:   sinrconn.MobilityWaypoint,
	}
}

// The generator's seed and defaults as Network.Churn derives them, for
// the churn.gen_us replay.
const (
	churnGenSeedMix  = 0x5DEECE66D
	churnBurstRadius = 4
)

// runChurn measures Network.Churn over fixed seeded traces at n = 1024 with
// exact physics. An op is one event: op samples are each Churn call's wall
// time divided by its events (the bootstrap Init, ~1%, included).
func runChurn(e *env) error {
	ctx := context.Background()
	n, events, calls := 1024, 10, e.cfg.units(5*time.Second)
	if e.cfg.tiny {
		n, events = 64, 4
	}
	pts, g := points(churnGeometrySeed, n)
	e.logf("# churn: n=%d calls=%d events/call=%d", n, calls, events)
	nw, err := setUp(e, pts, openOptions(0))
	if err != nil {
		return err
	}
	defer nw.Close()
	in, err := sinr.NewInstance(g, sinr.DefaultParams())
	if err != nil {
		return err
	}
	t0 := time.Now()
	in.GainTable()
	e.layer["sinr.gaintable_ms"] = ms(time.Since(t0))

	var ct *churnTracer
	if e.cfg.trace {
		if ct, err = newChurnTracer(e, pts); err != nil {
			return err
		}
		defer ct.nw.Close()
	}
	var stats []sinrconn.ChurnStats
	resetPeakRSS()
	for i := 0; i < calls; i++ {
		tr := churnTrace(i, events)
		e.attempted++
		runtime.GC()
		before := readGo()
		t0 := time.Now()
		rep, err := nw.Churn(ctx, tr)
		d := time.Since(t0)
		e.alloc += readGo().allocBytes - before.allocBytes
		if err != nil {
			e.fail("churn trace %d: %v", tr.Seed, err)
			continue
		}
		e.ops = append(e.ops, d/time.Duration(events))
		e.logf("# churn trace %d: %.1f ms/event, %d slots, %d incremental, %d rebuilds", tr.Seed,
			ms(d)/float64(events), rep.Stats.SlotsUsed, rep.Stats.IncrementalRepairs, rep.Stats.Rebuilds)
		checkChurn(e, tr, rep)
		stats = append(stats, rep.Stats)
		if ct != nil {
			ct.call(tr, rep.Stats, d)
		}
	}
	e.slotCounts(e.counts)
	addChurnStats(e, stats, calls*events)
	if ct == nil {
		return nil
	}
	return ct.finish(g, events, calls)
}

// checkChurn checks one Churn report: the final tree against the full
// bi-tree contract (Verify: structure, strong connectivity, ordering and
// per-slot feasibility on the final deployment), and the report's own
// accounting.
func checkChurn(e *env, tr sinrconn.TraceSpec, rep *sinrconn.ChurnReport) {
	if err := rep.Final.Tree.Verify(); err != nil {
		e.fail("churn trace %d: final tree: %v", tr.Seed, err)
	}
	m := rep.Final.Metrics
	if got := distinctSlots(rep.Final.Tree.Up); got != m.ScheduleLength {
		e.fail("churn trace %d: schedule length %d but %d distinct slots", tr.Seed, m.ScheduleLength, got)
	}
	if rep.Stats.Events != tr.Events {
		e.fail("churn trace %d: %d of %d events processed", tr.Seed, rep.Stats.Events, tr.Events)
	}
	e.result(m.ScheduleLength, rep.Stats.SlotsUsed, m.AggregationLatency, true)
}

func addChurnStats(e *env, stats []sinrconn.ChurnStats, events int) {
	var inc, restamps, rebuilds, retries, damped, slots int
	for _, s := range stats {
		inc += s.IncrementalRepairs
		restamps += s.Restamps
		rebuilds += s.Rebuilds
		retries += s.Retries
		damped += s.DampedJoins
		slots += s.SlotsUsed
	}
	for k, v := range map[string]int{
		"churn.incremental": inc, "churn.restamps": restamps, "churn.rebuilds": rebuilds,
		"churn.retries": retries, "churn.damped_joins": damped,
	} {
		e.layer[k] = float64(v)
		e.counts[k] = float64(v)
	}
	e.layer["churn.slots_per_event"] = float64(slots) / float64(max(1, events))
	e.counts["churn.slots"] = float64(slots)
}

// churnTracer follows every untraced Churn call with the same trace on a
// second session whose engines report every slot, then replays the event
// generator alone to price it.
type churnTracer struct {
	e                *env
	nw               *sinrconn.Network
	st               *slotTrace
	g                goDelta
	traced, untraced time.Duration
	check            time.Duration
}

func newChurnTracer(e *env, pts []sinrconn.Point) (*churnTracer, error) {
	st := &slotTrace{tr: e.tr, nodes: len(pts)}
	nw, _, _, err := openSession(pts, setupReps, openOptions(0, sinrconn.WithObserver(st.public())))
	if err != nil {
		return nil, err
	}
	return &churnTracer{e: e, nw: nw, st: st}, nil
}

func (t *churnTracer) call(tr sinrconn.TraceSpec, untraced sinrconn.ChurnStats, wall time.Duration) {
	e := t.e
	e.attempted++
	runtime.GC()
	before := readGo()
	var rep *sinrconn.ChurnReport
	var err error
	_, d := e.tr.timed("sinrconn.Churn", -1, func(id int) {
		t.st.reset(id)
		rep, err = t.nw.Churn(context.Background(), tr)
	})
	t.g.add(before, readGo())
	if err != nil {
		e.fail("traced churn trace %d: %v", tr.Seed, err)
		return
	}
	if rep.Stats != untraced {
		e.fail("traced churn trace %d: stats %+v differ from untraced %+v", tr.Seed, rep.Stats, untraced)
	}
	t.traced += d
	t.untraced += wall
	_, dCheck := e.tr.timed("tree.check", -1, func(int) {
		if err := rep.Final.Tree.Verify(); err != nil {
			e.fail("traced churn trace %d: final tree: %v", tr.Seed, err)
		}
	})
	t.check += dCheck
}

func (t *churnTracer) finish(g []geom.Point, events, calls int) error {
	e := t.e
	t.st.layerMetrics(e.layer, e.tr.total("sinrconn.Churn"))
	t.st.counts(e.counts)
	t.g.layerMetrics(e.layer)
	e.layer["go.mallocs_per_op"] /= float64(events) // per event, not per call
	e.layer["churn.event_ms"] = ms(t.untraced) / float64(calls*events)
	e.layer["tree.check_ms"] = ms(t.check) / float64(calls)
	e.layer["trace.coverage"] = e.layer["sim.busy_share"]
	if t.untraced > 0 {
		e.layer["trace.overhead_pct"] = 100 * float64(t.traced-t.untraced) / float64(t.untraced)
	}

	// churn.gen_us: the generator alone, replayed for as many events
	// against a fixed state: the deployment with every node alive and the
	// links of one Init tree over it.
	r, err := t.nw.Run(context.Background(), sinrconn.PipelineInit, sinrconn.WithSeed(warmSeed(setupReps+1)))
	if err != nil {
		return err
	}
	alive := make([]int, len(g))
	for i := range alive {
		alive[i] = i
	}
	var links []sinr.Link
	for _, l := range r.Tree.Up {
		links = append(links, sinr.Link{From: l.From, To: l.To})
	}
	state := churn.State{Points: g, Alive: alive, Links: links}
	var gen time.Duration
	for i := 0; i < calls; i++ {
		tr := churnTrace(i, events)
		gn, err := churn.NewGenerator(tr.Seed^churnGenSeedMix, churn.Rates{
			Join: tr.JoinRate, Fail: tr.FailRate, Burst: tr.BurstRate, Shower: tr.ShowerRate, Move: tr.MoveRate,
		}, churnBurstRadius, 0)
		if err != nil {
			return err
		}
		_, d := e.tr.timed("churn.gen", -1, func(int) {
			for k := 0; k < events; k++ {
				if _, err := gn.Next(state); err != nil {
					e.fail("churn generator replay: %v", err)
					return
				}
			}
		})
		gen += d
	}
	e.layer["churn.gen_us"] = float64(gen) / float64(time.Microsecond) / float64(calls*events)
	return nil
}
