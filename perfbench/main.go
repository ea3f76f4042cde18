// Command perfbench is the repository's benchmark: four fixed workloads
// (build, build-far, churn, serve) run against the public surface
// (sinrconn.Open, Network.Run and Network.Churn, and the internal/serve HTTP
// handler over loopback TCP), every result checked, every end-to-end metric
// printed by name with its unit.
//
//	bash perfbench/run.sh --workload build --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the same work runs untraced and, op by op (serve: pass by
// pass), traced on a second session, and the run reports the per-layer
// metrics instead: spans recorded around the calls into each layer from
// this package's own files, engine slot events, Go runtime counters and the
// tracing overhead. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}.
//
// Every run does a fixed amount of work derived from (workload, seed,
// seconds); the clock never cuts a run short. Simulated counts therefore
// repeat exactly, and with --count-dir the run compares them against every
// earlier run of the same binary, workload, seed and size, failing on any
// difference.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workers pins the engine worker count of every session the benchmark
// opens. One worker leaves the second CPU of a 2-CPU box to the runtime
// and keeps op times steady (TVC-mean at n = 1024: 2.55 s with 1 worker,
// 2.78 s with 2, both within ~3.5% run to run).
const workers = 1

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tiny     bool // smoke-test sizes
}

// units converts the run's time budget into a fixed count of work units of
// the given nominal cost, so the work depends on --seconds but never on
// the clock.
func (c config) units(nominal time.Duration) int {
	if c.tiny {
		return 2
	}
	return max(1, int(math.Round(float64(c.seconds)*float64(time.Second)/float64(nominal))))
}

// countSet holds the exact simulated counts of a run.
type countSet map[string]float64

// env collects what one workload run measures.
type env struct {
	cfg config
	tr  *tracer // nil when untraced

	setup  []time.Duration // one per set-up repetition
	ops    []time.Duration // untraced wall time per op
	alloc  uint64          // Go heap bytes allocated during the untraced ops
	sched  []float64       // schedule length per result
	constr []float64       // construction slots per result
	lat    []float64       // aggregation latency per ordered result

	layer  map[string]float64
	counts countSet
	lines  []string

	attempted, failed int
}

func newEnv(cfg config) *env {
	e := &env{cfg: cfg, layer: map[string]float64{}, counts: countSet{}}
	if cfg.trace {
		e.tr = newTracer()
	}
	return e
}

func (e *env) logf(format string, args ...any) {
	e.lines = append(e.lines, fmt.Sprintf(format, args...))
}

// fail records a failed op or check.
func (e *env) fail(format string, args ...any) {
	e.failed++
	e.logf("FAIL: "+format, args...)
}

// result records one pipeline result's user-visible slot counts.
func (e *env) result(schedule, construction, latency int, ordered bool) {
	e.sched = append(e.sched, float64(schedule))
	e.constr = append(e.constr, float64(construction))
	if ordered {
		e.lat = append(e.lat, float64(latency))
	}
}

// slotCounts adds the e2e slot counts to the count set.
func (e *env) slotCounts(c countSet) {
	c["schedule_slots_sum"] = sum(e.sched)
	c["construction_slots_sum"] = sum(e.constr)
	c["latency_slots_sum"] = sum(e.lat)
	c["results"] = float64(len(e.sched))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var cfg config
	var countDir string
	var spec bool
	flag.StringVar(&cfg.workload, "workload", "", "workload name (build, build-far, churn, serve)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: derives build's and serve's geometry, protocol seeds and request sequences (build-far and churn use fixed inputs)")
	flag.IntVar(&cfg.seconds, "seconds", runSeconds, "nominal measured seconds; sizes the fixed work list")
	traceFlag := flag.Int("trace", 0, "1 = report per-layer metrics from an added traced pass")
	flag.StringVar(&countDir, "count-dir", "", "directory holding the exact counts of earlier runs (empty = no cross-run gate)")
	flag.BoolVar(&spec, "emit-spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if spec {
		if err := emitSpec(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 || cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds at least 1")
		os.Exit(2)
	}
	e, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if countDir != "" {
		if err := gateCounts(countDir, cfg, e.counts); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: exact-count gate:", err)
			os.Exit(3)
		}
	}
	out, err := report(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, l := range e.lines {
		fmt.Println(l)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

// resetPeakRSS restarts the resident-set high-water mark, so
// go.peak_rss_mb covers the measured ops only.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reset peak RSS:", err)
	}
}

func run(cfg config) (*env, error) {
	e := newEnv(cfg)
	stamp(e)
	var err error
	switch cfg.workload {
	case "build":
		err = runBuild(e, buildSizes(cfg, false))
	case "build-far":
		err = runBuild(e, buildSizes(cfg, true))
	case "churn":
		err = runChurn(e)
	case "serve":
		err = runServe(e)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// stamp records what the numbers were measured on.
func stamp(e *env) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	e.logf("# workload=%s seed=%d seconds=%d trace=%v", e.cfg.workload, e.cfg.seed, e.cfg.seconds, e.cfg.trace)
	e.logf("# nproc=%d GOMAXPROCS=%d engine_workers=%d go=%s commit=%s build=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, runtime.Version(), commit, binaryHash())
}

// report turns the measurements into the final JSON object, printing the
// human-readable lines alongside.
func report(e *env) (output, error) {
	out := output{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]value{}}
	if out.Attempted < 1 {
		out.Attempted, out.Failed = 1, max(1, out.Failed)
	}
	out.Correct = out.Failed == 0
	rss, err := peakRSSMB()
	if err != nil {
		return out, err
	}
	if e.cfg.trace {
		e.layer["fail_ratio"] = float64(out.Failed) / float64(out.Attempted)
		e.layer["go.peak_rss_mb"] = rss
		for _, m := range perLayer {
			v := e.layer[m.Name]
			out.Metrics[m.Name] = value{v, m.Unit}
			e.logf("%-28s %14.4f %s", m.Name, v, m.Unit)
		}
		return out, nil
	}
	e2e := map[string]float64{
		"setup_s":            quantile(durMS(e.setup), 0.5) / 1000,
		"op_ms":              mean(durMS(e.ops)),
		"op_p50_ms":          quantile(durMS(e.ops), 0.5),
		"schedule_slots":     mean(e.sched),
		"construction_slots": mean(e.constr),
		"latency_slots":      mean(e.lat),
		"alloc_mb_per_op":    float64(e.alloc) / float64(max(1, len(e.ops))) / (1 << 20),
	}
	for _, m := range endToEnd {
		v := e2e[m.Name]
		out.Metrics[m.Name] = value{v, m.Unit}
		e.logf("%-28s %14.4f %s", m.Name, v, m.Unit)
	}
	e.logf("# samples: setup=%d ops=%d results=%d", len(e.setup), len(e.ops), len(e.sched))
	e.logf("# setup_ms: %.2f", durMS(e.setup))
	return out, nil
}

// binaryHash identifies the build, keying the cross-run count gate.
func binaryHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// gateCounts compares the run's exact counts with those stored by earlier
// runs of the same build, workload, seed and size, then stores the union.
// Any difference means the work of a run is not fixed.
func gateCounts(dir string, cfg config, c countSet) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d-%d.json", binaryHash(), cfg.workload, cfg.seed, cfg.seconds))
	prev := countSet{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &prev); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	var diffs []string
	for k, v := range c {
		if p, ok := prev[k]; ok && p != v {
			diffs = append(diffs, fmt.Sprintf("%s: %v, earlier %v", k, v, p))
		}
		prev[k] = v
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("counts differ from an earlier run: %v", diffs)
	}
	b, err := json.MarshalIndent(prev, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// compareCounts reports the names whose values differ between two count
// sets, over the names both hold.
func compareCounts(a, b countSet) []string {
	var diffs []string
	for k, v := range a {
		if w, ok := b[k]; ok && w != v {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", k, v, w))
		}
	}
	sort.Strings(diffs)
	return diffs
}
