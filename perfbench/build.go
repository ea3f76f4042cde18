package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"sinrconn"
	"sinrconn/internal/core"
	"sinrconn/internal/geom"
	"sinrconn/internal/schedule"
	"sinrconn/internal/sim"
	"sinrconn/internal/sinr"
	"sinrconn/internal/tree"
	"sinrconn/internal/workload"
)

// points draws the workload geometry: workload.JitteredGrid(rng, n, 2.6,
// 0.8) seeded from the workload seed, as both the library's and the
// benchmark's own view.
func points(seed int64, n int) ([]sinrconn.Point, []geom.Point) {
	g := workload.JitteredGrid(rand.New(rand.NewSource(seed)), n, 2.6, 0.8)
	pts := make([]sinrconn.Point, len(g))
	for i, p := range g {
		pts[i] = sinrconn.Point{X: p.X, Y: p.Y}
	}
	return pts, g
}

// protocolSeed derives the i-th protocol seed of a run; warm-up seeds are
// negative, outside every measured set.
func protocolSeed(workloadSeed int64, i int) int64 { return workloadSeed*1000 + int64(i) + 1 }

func warmSeed(i int) int64 { return -1 - int64(i) }

// openOptions are the Open options of every build session.
func openOptions(eps float64, extra ...sinrconn.Option) []sinrconn.Option {
	opts := []sinrconn.Option{sinrconn.WithWorkers(workers)}
	if eps > 0 {
		opts = append(opts, sinrconn.WithMaxRelError(eps))
	}
	return append(opts, extra...)
}

// warmUp pays a session's lazy one-time costs — the gain table, the
// quadtree plan, the engine pool's first dispatch — with a Run on a seed
// outside the measured set, canceled once its first slot has executed so
// set-up holds one Init's node set-up and first slot but no further
// construction.
func warmUp(nw *sinrconn.Network, i int) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := nw.Run(ctx, sinrconn.PipelineInit, sinrconn.WithSeed(warmSeed(i)),
		sinrconn.WithObserver(func(sinrconn.SlotEvent) { cancel() }))
	if err != nil && !errors.Is(err, context.Canceled) {
		return fmt.Errorf("warm-up run: %w", err)
	}
	return nil
}

// openSession opens and warms one session, returning the Open time and the
// whole set-up time.
func openSession(pts []sinrconn.Point, i int, opts []sinrconn.Option) (*sinrconn.Network, time.Duration, time.Duration, error) {
	t0 := time.Now()
	nw, err := sinrconn.Open(pts, opts...)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("open: %w", err)
	}
	open := time.Since(t0)
	if err := warmUp(nw, i); err != nil {
		nw.Close()
		return nil, 0, 0, err
	}
	return nw, open, time.Since(t0), nil
}

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median.
const setupReps = 11

// setUp repeats the session set-up, keeping the last session.
func setUp(e *env, pts []sinrconn.Point, opts []sinrconn.Option) (*sinrconn.Network, error) {
	var nw *sinrconn.Network
	var opens []time.Duration
	for i := 0; i < setupReps; i++ {
		if nw != nil {
			nw.Close()
		}
		runtime.GC()
		var open, total time.Duration
		var err error
		nw, open, total, err = openSession(pts, i, opts)
		if err != nil {
			return nil, err
		}
		opens = append(opens, open)
		e.setup = append(e.setup, total)
	}
	e.layer["sinrconn.open_ms"] = quantile(durMS(opens), 0.5)
	return nw, nil
}

type buildSize struct {
	name      string
	n         int
	eps       float64
	pipelines []sinrconn.Pipeline
	seeds     int
	// fixedSeed, when non-zero, replaces the workload seed as the source
	// of geometry and protocol seeds. build-far measures a single instance
	// per run, whose slot counts vary by ~9% across seeds, more than a
	// bound can absorb, so its inputs are fixed.
	fixedSeed int64
}

// buildSizes fixes the build workloads. build: every pipeline at n = 1024,
// exact physics, ~7 s per seed. build-far: Init and RescheduleMean at
// n = 8192 under ε = 1 (FarAuto), ~18 s per seed.
func buildSizes(cfg config, far bool) buildSize {
	if far {
		b := buildSize{name: "build-far", n: 8192, eps: 1,
			pipelines: []sinrconn.Pipeline{sinrconn.PipelineInit, sinrconn.PipelineRescheduleMean},
			seeds:     cfg.units(18 * time.Second), fixedSeed: 1}
		if cfg.tiny {
			b.n = 512
		}
		return b
	}
	b := buildSize{name: "build", n: 1024, pipelines: sinrconn.Pipelines(), seeds: cfg.units(6800 * time.Millisecond)}
	if cfg.tiny {
		b.n = 64
	}
	return b
}

// coreOut is a direct core construction mirroring one Run.
type coreOut struct {
	bt                                                      *tree.BiTree
	slotsUsed, rounds, iters, powerIters, forced, slotPairs int
}

// coreLayer names the per-pipeline metric of the core layer.
func coreLayer(p sinrconn.Pipeline) string {
	switch p {
	case sinrconn.PipelineInit:
		return "core.init_ms"
	case sinrconn.PipelineRescheduleMean:
		return "core.reschedule_ms"
	case sinrconn.PipelineTVCMean:
		return "core.tvc_mean_ms"
	}
	return "core.tvc_arb_ms"
}

// coreRun replays the body of Network.Run for pipeline p through the core
// package directly, on the benchmark's own instance: the same configs the
// session derives, so the result must match the Run's.
func coreRun(ctx context.Context, in *sinr.Instance, far sinr.Far, adaptive bool, pool *sim.Pool, p sinrconn.Pipeline, seed int64, obs sim.Observer) (coreOut, error) {
	icfg := core.InitConfig{Seed: seed, Workers: workers, Pool: pool, FarField: far, Adaptive: adaptive, Observer: obs}
	switch p {
	case sinrconn.PipelineInit:
		res, err := core.Init(ctx, in, icfg)
		if err != nil {
			return coreOut{}, err
		}
		res.Tree.Compact()
		return coreOut{bt: res.Tree, slotsUsed: res.SlotsUsed, rounds: res.Rounds}, nil
	case sinrconn.PipelineRescheduleMean:
		ires, err := core.Init(ctx, in, icfg)
		if err != nil {
			return coreOut{}, err
		}
		pa := sinr.NoiseSafeMean(in.Params(), math.Max(1, in.Delta()))
		rres, err := core.Reschedule(ctx, in, ires.Tree, pa, schedule.DistConfig{
			Seed: seed + 1, Workers: workers, Pool: pool, FarField: far, Adaptive: adaptive, Observer: obs})
		if err != nil {
			return coreOut{}, err
		}
		return coreOut{bt: rres.Tree, slotsUsed: ires.SlotsUsed + 2*rres.SlotPairs, rounds: ires.Rounds,
			slotPairs: rres.SlotPairs}, nil
	default:
		v := core.VariantMean
		if p == sinrconn.PipelineTVCArbitrary {
			v = core.VariantArbitrary
		}
		icfg.Seed = 0
		res, err := core.TreeViaCapacity(ctx, in, core.TVCConfig{Variant: v, Seed: seed, Init: icfg})
		if err != nil {
			return coreOut{}, err
		}
		return coreOut{bt: res.Tree, slotsUsed: res.ConstructionSlots, iters: res.Iterations,
			powerIters: res.PowerSolveIterations, forced: res.ForcedSelections}, nil
	}
}

// runLayer names the per-pipeline Run metric of the sinrconn layer.
func runLayer(p sinrconn.Pipeline) string {
	switch p {
	case sinrconn.PipelineInit:
		return "sinrconn.init_ms"
	case sinrconn.PipelineRescheduleMean:
		return "sinrconn.resched_ms"
	case sinrconn.PipelineTVCMean:
		return "sinrconn.tvc_mean_ms"
	}
	return "sinrconn.tvc_arb_ms"
}

// buildOp is one measured (seed, pipeline) pair, what it produced and its
// untraced wall time.
type buildOp struct {
	p       sinrconn.Pipeline
	seed    int64
	metrics sinrconn.Metrics
	wall    time.Duration
}

// runBuild measures cold Runs: per seed, one Run of each pipeline, each a
// memo miss. An op is one seed's Runs, back to back.
func runBuild(e *env, b buildSize) error {
	ctx := context.Background()
	inputSeed := e.cfg.seed
	if b.fixedSeed != 0 {
		inputSeed = b.fixedSeed
	}
	pts, g := points(inputSeed, b.n)
	e.logf("# %s: n=%d eps=%g seeds=%d pipelines=%v", b.name, b.n, b.eps, b.seeds, b.pipelines)
	nw, err := setUp(e, pts, openOptions(b.eps))
	if err != nil {
		return err
	}
	defer nw.Close()

	// The benchmark's own instance of the same points: result checks and
	// the direct core replays run on it.
	in, err := sinr.NewInstance(g, sinr.DefaultParams())
	if err != nil {
		return err
	}
	t0 := time.Now()
	in.GainTable()
	e.layer["sinr.gaintable_ms"] = ms(time.Since(t0))
	t0 = time.Now()
	far, adaptive, err := farPlan(in, b.eps)
	if err != nil {
		return err
	}
	if far != nil {
		e.layer["sinr.quadplan_ms"] = ms(time.Since(t0))
	}

	var bt *buildTracer
	if e.cfg.trace {
		if bt, err = newBuildTracer(e, b, pts, in, far, adaptive); err != nil {
			return err
		}
		defer bt.close()
	}
	perPipeline := map[sinrconn.Pipeline][]float64{}
	resetPeakRSS()
	for s := 0; s < b.seeds; s++ {
		seed := protocolSeed(inputSeed, s)
		var unit time.Duration
		for _, p := range b.pipelines {
			e.attempted++
			runtime.GC()
			before := readGo()
			t0 := time.Now()
			r, err := nw.Run(ctx, p, sinrconn.WithSeed(seed))
			d := time.Since(t0)
			e.alloc += readGo().allocBytes - before.allocBytes
			if err != nil {
				e.fail("%v seed %d: %v", p, seed, err)
				continue
			}
			unit += d
			perPipeline[p] = append(perPipeline[p], ms(d))
			if err := checkResult(in, far, p, r); err != nil {
				e.fail("seed %d: %v", seed, err)
			}
			e.result(r.Metrics.ScheduleLength, r.Metrics.SlotsUsed, r.Metrics.AggregationLatency, p.Ordered())
			if bt != nil {
				bt.op(buildOp{p, seed, r.Metrics, d})
			}
		}
		e.ops = append(e.ops, unit)
	}
	e.slotCounts(e.counts)
	for _, p := range b.pipelines {
		e.layer[runLayer(p)] = quantile(perPipeline[p], 0.5)
		e.logf("# %-22s median %10.2f ms over %d runs", runLayer(p), quantile(perPipeline[p], 0.5), len(perPipeline[p]))
	}
	if bt != nil {
		bt.finish()
	}
	return nil
}

// buildTracer follows every untraced op with the same op on a second
// session whose Run reports each slot, then replays the op through the core
// package directly and times the tree-layer calls a Run makes, attributing
// the Run's wall time to layers. Interleaving the traced op with its
// untraced twin keeps the tracing overhead estimate free of drift between
// passes.
type buildTracer struct {
	e        *env
	in       *sinr.Instance
	far      sinr.Far
	adaptive bool
	nw       *sinrconn.Network
	pool     *sim.Pool

	// Run and core replay observe separate traces: the replay must see
	// the very slots the Run saw.
	run, core *slotTrace
	g         goDelta

	runs                  int
	traced, untraced      time.Duration
	treeLat, treeCheck    time.Duration
	overhead, coverage    []float64
	layerMS               map[string][]float64
	rounds, roundsN       int
	iters, itersN, forced int
	powerIters, powerN    int
	pairs, pairsN         int
}

func newBuildTracer(e *env, b buildSize, pts []sinrconn.Point, in *sinr.Instance, far sinr.Far, adaptive bool) (*buildTracer, error) {
	nw, _, _, err := openSession(pts, setupReps, openOptions(b.eps))
	if err != nil {
		return nil, err
	}
	return &buildTracer{
		e: e, in: in, far: far, adaptive: adaptive, nw: nw,
		// The replays borrow a persistent pool, as a session's engines do.
		pool:    sim.NewPool(workers),
		run:     &slotTrace{tr: e.tr, nodes: b.n},
		core:    &slotTrace{tr: e.tr, nodes: b.n},
		layerMS: map[string][]float64{},
	}, nil
}

func (t *buildTracer) close() {
	t.nw.Close()
	t.pool.Close()
}

func (t *buildTracer) op(op buildOp) {
	e, ctx := t.e, context.Background()
	e.attempted++
	runtime.GC()
	before := readGo()
	var r *sinrconn.Result
	var rerr error
	_, dRun := e.tr.timed("sinrconn.Run", -1, func(id int) {
		t.run.reset(id)
		r, rerr = t.nw.Run(ctx, op.p, sinrconn.WithSeed(op.seed), sinrconn.WithObserver(t.run.public()))
	})
	t.g.add(before, readGo())
	if rerr != nil {
		e.fail("traced %v seed %d: %v", op.p, op.seed, rerr)
		return
	}
	if r.Metrics != op.metrics {
		e.fail("traced %v seed %d: metrics %+v differ from untraced %+v", op.p, op.seed, r.Metrics, op.metrics)
	}
	_, dCheck := e.tr.timed("tree.check", -1, func(int) {
		if err := checkResult(t.in, t.far, op.p, r); err != nil {
			e.fail("traced seed %d: %v", op.seed, err)
		}
	})
	t.treeCheck += dCheck

	var c coreOut
	var cerr error
	layer := coreLayer(op.p)
	_, dCore := e.tr.timed(layer, -1, func(id int) {
		t.core.reset(id)
		c, cerr = coreRun(ctx, t.in, t.far, t.adaptive, t.pool, op.p, op.seed, t.core.internal())
	})
	if cerr != nil {
		e.fail("core %v seed %d: %v", op.p, op.seed, cerr)
		return
	}
	var dLat time.Duration
	if op.p.Ordered() {
		var agg int
		var lerr error
		_, dLat = e.tr.timed("tree.latency", -1, func(int) {
			agg, lerr = c.bt.AggregationLatency()
			if lerr == nil {
				_, lerr = c.bt.BroadcastLatency()
			}
		})
		if lerr != nil || agg != r.Metrics.AggregationLatency {
			e.fail("core %v seed %d: latency %d (%v), Run reported %d", op.p, op.seed, agg, lerr, r.Metrics.AggregationLatency)
		}
		t.treeLat += dLat
	}
	if c.slotsUsed != r.Metrics.SlotsUsed || c.bt.NumSlots() != r.Metrics.ScheduleLength {
		e.fail("core %v seed %d: %d slots / length %d, Run reported %d / %d", op.p, op.seed,
			c.slotsUsed, c.bt.NumSlots(), r.Metrics.SlotsUsed, r.Metrics.ScheduleLength)
	}
	t.runs++
	t.traced += dRun
	t.untraced += op.wall
	t.layerMS[layer] = append(t.layerMS[layer], ms(dCore))
	t.overhead = append(t.overhead, ms(dRun-dCore-dLat))
	t.coverage = append(t.coverage, float64(dCore+dLat)/float64(dRun))
	switch op.p {
	case sinrconn.PipelineInit, sinrconn.PipelineRescheduleMean:
		t.rounds += c.rounds
		t.roundsN++
	default:
		t.iters += c.iters
		t.itersN++
		t.forced += c.forced
	}
	if op.p == sinrconn.PipelineTVCArbitrary {
		t.powerIters += c.powerIters
		t.powerN++
	}
	if op.p == sinrconn.PipelineRescheduleMean {
		t.pairs += c.slotPairs
		t.pairsN++
	}
}

func (t *buildTracer) finish() {
	e := t.e
	t.run.layerMetrics(e.layer, e.tr.total("sinrconn.Run"))
	runSlots, coreSlots := countSet{}, countSet{}
	t.run.counts(runSlots)
	t.core.counts(coreSlots)
	if diffs := compareCounts(runSlots, coreSlots); len(diffs) > 0 {
		e.fail("core replays saw other slots than the Runs: %v", diffs)
	}
	for k, v := range runSlots {
		e.counts[k] = v
	}
	for name, xs := range t.layerMS {
		e.layer[name] = quantile(xs, 0.5)
	}
	t.g.layerMetrics(e.layer)
	runs := float64(max(1, t.runs))
	e.layer["sinrconn.overhead_ms"] = quantile(t.overhead, 0.5)
	e.layer["tree.latency_ms"] = ms(t.treeLat) / runs
	e.layer["tree.check_ms"] = ms(t.treeCheck) / runs
	e.layer["trace.coverage"] = quantile(t.coverage, 0.5)
	if t.untraced > 0 {
		e.layer["trace.overhead_pct"] = 100 * float64(t.traced-t.untraced) / float64(t.untraced)
	}
	perOp := func(total, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	e.layer["core.init_rounds"] = perOp(t.rounds, t.roundsN)
	e.layer["core.tvc_iterations"] = perOp(t.iters, t.itersN)
	e.layer["core.power_iterations"] = perOp(t.powerIters, t.powerN)
	e.layer["core.forced_selections"] = float64(t.forced)
	e.layer["schedule.slot_pairs"] = perOp(t.pairs, t.pairsN)
	for _, k := range []string{"core.init_rounds", "core.tvc_iterations", "core.power_iterations", "core.forced_selections", "schedule.slot_pairs"} {
		e.counts[k] = e.layer[k]
	}
}
