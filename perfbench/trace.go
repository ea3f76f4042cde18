package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sinrconn"
	"sinrconn/internal/sim"
)

// span is one timed call into a layer, kept in memory for the whole run.
// Parent is the index of the enclosing span, or -1 for an op's root.
type span struct {
	Name       string
	Start, End time.Duration // since the tracer's epoch
	Parent     int
}

// tracer records spans. It is safe for concurrent use (serve's clients
// record from their own goroutines).
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Duration, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent})
	return len(t.spans) - 1
}

// timed runs fn inside a span and returns the span's index and duration.
func (t *tracer) timed(name string, parent int, fn func(id int)) (int, time.Duration) {
	t.mu.Lock()
	id := len(t.spans)
	start := t.now()
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent})
	t.mu.Unlock()
	fn(id)
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
	return id, end - start
}

// total sums the durations of spans named name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// slotTrace turns engine slot events into sim.slot spans and slot-shape
// counts. Consecutive events of one engine run (slot index +1) bound one
// slot's work; the first event of each engine run only marks a start,
// because the interval before it is protocol set-up, not a slot.
type slotTrace struct {
	tr     *tracer
	parent int
	nodes  int // deployment size, for the decode-yield denominator

	have     bool
	last     time.Duration
	lastSlot int

	slots, far           int
	deliveries, audience int64
	senders              []int
	slotUS               []float64
	busy                 time.Duration
}

func (st *slotTrace) observe(slot, senders, deliveries int, far bool) {
	now := st.tr.now()
	if st.have && slot == st.lastSlot+1 {
		st.tr.add("sim.slot", st.last, now, st.parent)
		st.busy += now - st.last
		st.slotUS = append(st.slotUS, float64(now-st.last)/float64(time.Microsecond))
	}
	st.have, st.last, st.lastSlot = true, now, slot
	st.slots++
	if far {
		st.far++
	}
	st.deliveries += int64(deliveries)
	st.audience += int64(st.nodes - senders)
	st.senders = append(st.senders, senders)
}

// reset starts a new op under parent: the next event opens a fresh
// interval.
func (st *slotTrace) reset(parent int) { st.parent, st.have = parent, false }

func (st *slotTrace) public() sinrconn.SlotObserver {
	return func(e sinrconn.SlotEvent) { st.observe(e.Slot, e.Senders, e.Deliveries, e.Far) }
}

func (st *slotTrace) internal() sim.Observer {
	return func(e sim.SlotEvent) { st.observe(e.Slot, e.Senders, e.Deliveries, e.Far) }
}

// layerMetrics writes the slot-shape metrics into out. wall is the op
// wall time the slots ran inside.
func (st *slotTrace) layerMetrics(out map[string]float64, wall time.Duration) {
	if st.slots == 0 {
		return
	}
	s := make([]float64, len(st.senders))
	for i, v := range st.senders {
		s[i] = float64(v)
	}
	out["sim.slots"] = float64(st.slots)
	out["sinr.far_slots"] = float64(st.far)
	out["sim.senders_p50"] = quantile(s, 0.5)
	out["sim.senders_p90"] = quantile(s, 0.9)
	out["sim.senders_max"] = quantile(s, 1)
	out["sim.slot_us_p50"] = quantile(st.slotUS, 0.5)
	out["sim.slot_us_p90"] = quantile(st.slotUS, 0.9)
	if wall > 0 {
		out["sim.busy_share"] = float64(st.busy) / float64(wall)
	}
	if st.audience > 0 {
		out["sim.decode_yield"] = float64(st.deliveries) / float64(st.audience)
	}
}

// counts are the exact slot-shape counts, for the count gate.
func (st *slotTrace) counts(c countSet) {
	c["sim.slots"] = float64(st.slots)
	c["sinr.far_slots"] = float64(st.far)
	c["sim.deliveries"] = float64(st.deliveries)
	var sum int
	for _, v := range st.senders {
		sum += v
	}
	c["sim.senders_sum"] = float64(sum)
}

// goStats snapshots the Go runtime counters read around ops.
type goStats struct{ allocBytes, mallocs, gcCycles uint64 }

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readGo() goStats {
	s := make([]metrics.Sample, len(goSamples))
	copy(s, goSamples)
	metrics.Read(s)
	return goStats{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// goDelta accumulates runtime counter deltas over ops.
type goDelta struct {
	ops int
	sum goStats
}

func (g *goDelta) add(before, after goStats) {
	g.ops++
	g.sum.allocBytes += after.allocBytes - before.allocBytes
	g.sum.mallocs += after.mallocs - before.mallocs
	g.sum.gcCycles += after.gcCycles - before.gcCycles
}

func (g *goDelta) layerMetrics(out map[string]float64) {
	if g.ops == 0 {
		return
	}
	out["go.mallocs_per_op"] = float64(g.sum.mallocs) / float64(g.ops)
	out["go.gc_cycles"] = float64(g.sum.gcCycles)
}

// peakRSSMB reads the process's resident-set high-water mark since the
// last resetPeakRSS. Each workload runs in its own process, so one
// workload's peak never leaks into another's.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (q = 0.5 is the median, 1 the maximum). It sorts a copy.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
