package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sinrconn"
	"sinrconn/internal/serve"
	"sinrconn/internal/sinr"
)

// serveClients is the closed loop's client count: the daemon's callers
// (scripts, loadgen) each wait for a reply before sending again.
const serveClients = 2

// missShare is the share of requests that ask for a key the client has
// not computed yet.
const missShare = 0.25

// spanHeader carries the client's request span id to the handler wrapper
// in traced passes.
const spanHeader = "X-Perfbench-Span"

// serveReq is one planned request of a client's fixed sequence.
type serveReq struct {
	pipeline sinrconn.Pipeline
	seed     int64
	miss     bool
	body     []byte
}

// servePlan fixes client c's request sequence: a miss draws a fresh seed
// from the client's own range (so clients never share a key), a hit
// repeats a key the client already computed. The plan depends only on
// (workload seed, client, count), never on timing.
func servePlan(workloadSeed int64, c, count int) []serveReq {
	rng := rand.New(rand.NewSource(workloadSeed*7919 + int64(c)))
	var keys []serveReq
	plan := make([]serveReq, count)
	for i := range plan {
		var r serveReq
		if len(keys) == 0 || rng.Float64() < missShare {
			p := sinrconn.PipelineInit
			if rng.Intn(2) == 1 {
				p = sinrconn.PipelineRescheduleMean
			}
			r = serveReq{pipeline: p, seed: int64(c+1)*1_000_000 + int64(len(keys)) + 1, miss: true}
			keys = append(keys, r)
		} else {
			r = keys[rng.Intn(len(keys))]
			r.miss = false
		}
		b, err := json.Marshal(serve.RunRequest{Pipeline: r.pipeline.String(), Options: serve.OptionsJSON{Seed: r.seed}, IncludeTree: true})
		if err != nil {
			panic(err) // a fixed struct always encodes
		}
		r.body = b
		plan[i] = r
	}
	return plan
}

// daemon is one in-process serve.Server behind a loopback listener.
type daemon struct {
	srv     *serve.Server
	hs      *http.Server
	base    string
	session string
	done    chan error
	client  *http.Client
}

// startDaemon starts a server, opens one session over pts and warms it with
// a run on a seed outside the measured set. It returns the open request's
// round-trip time.
func startDaemon(pts []sinrconn.Point, cacheSize int, wrap func(http.Handler) http.Handler, warm int) (*daemon, time.Duration, error) {
	srv := serve.New(serve.Config{CacheSize: cacheSize, Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	var h http.Handler = srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{
		srv:  srv,
		hs:   &http.Server{Handler: h},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients, DisableCompression: true,
		}},
	}
	go func() { d.done <- d.hs.Serve(ln) }()

	open := serve.OpenRequest{Points: make([][2]float64, len(pts))}
	for i, p := range pts {
		open.Points[i] = [2]float64{p.X, p.Y}
	}
	t0 := time.Now()
	var or serve.OpenResponse
	if err := d.post("/v1/sessions", open, &or); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("open session: %w", err)
	}
	openTime := time.Since(t0)
	d.session = or.SessionID
	var rr serve.RunResponse
	warmReq := serve.RunRequest{Pipeline: sinrconn.PipelineInit.String(), Options: serve.OptionsJSON{Seed: warmSeed(warm)}}
	if err := d.post("/v1/sessions/"+d.session+"/run", warmReq, &rr); err != nil {
		d.stop()
		return nil, 0, fmt.Errorf("warm-up run: %w", err)
	}
	return d, openTime, nil
}

func (d *daemon) post(path string, in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
	}
	return json.Unmarshal(body, out)
}

func (d *daemon) health() (serve.Health, error) {
	var h serve.Health
	resp, err := d.client.Get(d.base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// stop shuts the listener down, waits for the serve loop to return, and
// releases the server's sessions.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	d.srv.Close()
	return err
}

// served is what one request returned, kept for the checks that run after
// the measured loop. Only misses keep their decoded result; a hit keeps
// the hash of its result's encoding, so the benchmark's own memory stays
// small beside the daemon's.
type served struct {
	req     serveReq
	latency time.Duration
	status  int
	bytes   int
	cached  bool
	result  serve.ResultJSON // misses only
	sum     uint64           // FNV-1a of the encoded result
	err     error
	span    int // client span id (traced passes)
}

// drive runs the clients' fixed sequences against d concurrently and
// returns every request's outcome, in plan order per client, and the wall
// time of the whole loop.
func drive(d *daemon, plans [][]serveReq, tr *tracer) ([][]served, time.Duration) {
	out := make([][]served, len(plans))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[c] = driveClient(d, plans[c], tr)
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

func driveClient(d *daemon, plan []serveReq, tr *tracer) []served {
	url := d.base + "/v1/sessions/" + d.session + "/run"
	res := make([]served, len(plan))
	for i, rq := range plan {
		s := served{req: rq, span: -1}
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(rq.body))
		if err != nil {
			s.err = err
			res[i] = s
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		var body []byte
		call := func() {
			t0 := time.Now()
			resp, err := d.client.Do(req)
			if err == nil {
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				s.status = resp.StatusCode
			}
			s.latency, s.err = time.Since(t0), err
		}
		if tr != nil {
			s.span, _ = tr.timed("serve.request", -1, func(id int) {
				req.Header.Set(spanHeader, strconv.Itoa(id))
				call()
			})
		} else {
			call()
		}
		s.bytes = len(body)
		if s.err == nil && s.status == http.StatusOK {
			var resp serve.RunResponse
			if s.err = json.Unmarshal(body, &resp); s.err == nil {
				s.cached = resp.Cached
				s.sum, s.err = resultSum(resp.Result)
				if rq.miss {
					s.result = resp.Result
				}
			}
		}
		res[i] = s
	}
	return res
}

func resultSum(r serve.ResultJSON) (uint64, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}

// serveSize fixes the serve workload: n = 256, two clients, requests per
// client sized at ~6 ms of nominal client time each.
func serveSize(cfg config) (n, perClient int) {
	if cfg.tiny {
		return 32, 24
	}
	return 256, cfg.units(6 * time.Millisecond)
}

// runServe measures the daemon over loopback TCP. An op is one request.
func runServe(e *env) error {
	n, perClient := serveSize(e.cfg)
	pts, g := points(e.cfg.seed, n)
	plans := make([][]serveReq, serveClients)
	var misses, hits int
	for c := range plans {
		plans[c] = servePlan(e.cfg.seed, c, perClient)
		for _, r := range plans[c] {
			if r.miss {
				misses++
			} else {
				hits++
			}
		}
	}
	cacheSize := misses + setupReps + 8 // nothing is ever evicted
	e.logf("# serve: n=%d clients=%d requests/client=%d misses=%d hits=%d", n, serveClients, perClient, misses, hits)

	var d *daemon
	var opens []time.Duration
	for i := 0; i < setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		var open time.Duration
		var err error
		d, open, err = startDaemon(pts, cacheSize, nil, i)
		if err != nil {
			return err
		}
		e.setup = append(e.setup, time.Since(t0))
		opens = append(opens, open)
	}
	e.layer["sinrconn.open_ms"] = quantile(durMS(opens), 0.5)
	in, err := sinr.NewInstance(g, sinr.DefaultParams())
	if err != nil {
		d.stop()
		return err
	}
	t0 := time.Now()
	in.GainTable()
	e.layer["sinr.gaintable_ms"] = ms(time.Since(t0))

	resetPeakRSS()
	before := readGo()
	res, wall := drive(d, plans, nil)
	e.alloc = readGo().allocBytes - before.allocBytes
	h, herr := d.health()
	if err := d.stop(); err != nil {
		return err
	}
	if herr != nil {
		return herr
	}
	keys := checkServed(e, in, res, true)
	checkCache(e, h, misses, hits)
	var hitMS, missMS []float64
	for _, cr := range res {
		for _, s := range cr {
			e.ops = append(e.ops, s.latency)
			if s.req.miss {
				missMS = append(missMS, ms(s.latency))
			} else {
				hitMS = append(hitMS, ms(s.latency))
			}
		}
	}
	e.layer["serve.hit_p50_ms"] = quantile(hitMS, 0.5)
	e.layer["serve.hit_p99_ms"] = quantile(hitMS, 0.99)
	e.layer["serve.miss_p50_ms"] = quantile(missMS, 0.5)
	e.layer["serve.miss_p90_ms"] = quantile(missMS, 0.9)
	e.layer["serve.rps"] = float64(misses+hits) / wall.Seconds()
	e.logf("# serve: hit p50 %.3f ms p99 %.3f ms, miss p50 %.2f ms p90 %.2f ms, %.1f req/s",
		e.layer["serve.hit_p50_ms"], e.layer["serve.hit_p99_ms"], e.layer["serve.miss_p50_ms"], e.layer["serve.miss_p90_ms"], e.layer["serve.rps"])
	e.slotCounts(e.counts)
	if !e.cfg.trace {
		return nil
	}
	return traceServe(e, pts, in, plans, cacheSize, misses, hits, keys)
}

// resultKey names a computed result.
type resultKey struct {
	p    sinrconn.Pipeline
	seed int64
}

// checkServed checks every response: a 200 whose body decodes, the cache
// outcome the plan predicts, a hit's result identical to its key's miss,
// and each miss's tree against its pipeline's contract on the benchmark's
// own instance. It returns each miss's result by key.
func checkServed(e *env, in *sinr.Instance, res [][]served, record bool) map[resultKey]serve.ResultJSON {
	keys := map[resultKey]serve.ResultJSON{}
	sums := map[resultKey]uint64{}
	for _, cr := range res {
		for _, s := range cr {
			e.attempted++
			k := resultKey{s.req.pipeline, s.req.seed}
			if s.err != nil || s.status != http.StatusOK {
				e.fail("serve %v seed %d: status %d: %v", k.p, k.seed, s.status, s.err)
				continue
			}
			if s.cached == s.req.miss {
				e.fail("serve %v seed %d: cached=%v, plan says miss=%v", k.p, k.seed, s.cached, s.req.miss)
			}
			if s.req.miss {
				keys[k] = s.result
				sums[k] = s.sum
				if err := checkWire(in, k.p, s.result); err != nil {
					e.fail("serve seed %d: %v", k.seed, err)
				}
				if record {
					m := s.result.Metrics
					e.result(m.ScheduleLength, m.SlotsUsed, m.AggregationLatency, k.p.Ordered())
				}
			} else if sums[k] != s.sum {
				e.fail("serve %v seed %d: hit differs from the miss that computed it", k.p, k.seed)
			}
		}
	}
	return keys
}

// checkWire checks a result as the wire carries it.
func checkWire(in *sinr.Instance, p sinrconn.Pipeline, r serve.ResultJSON) error {
	if r.Tree == nil || r.Tree.NumNodes != in.Len() {
		return fmt.Errorf("%v: response tree missing or not spanning", p)
	}
	up := make([]sinrconn.ScheduledLink, len(r.Tree.Up))
	for i, l := range r.Tree.Up {
		up[i] = sinrconn.ScheduledLink{Link: sinrconn.Link{From: l.From, To: l.To}, Slot: l.Slot, Power: l.Power}
	}
	if err := checkTree(in, nil, r.Tree.Root, up, p.Ordered()); err != nil {
		return fmt.Errorf("%v: %w", p, err)
	}
	if got := distinctSlots(up); got != r.Metrics.ScheduleLength {
		return fmt.Errorf("%v: schedule length %d but %d distinct slots", p, r.Metrics.ScheduleLength, got)
	}
	if p.Ordered() && r.Metrics.AggregationLatency <= 0 {
		return fmt.Errorf("%v: no aggregation latency", p)
	}
	return nil
}

// checkCache checks the daemon's cache counters against the plan: every
// miss computed once (plus the warm-up run), every hit served from the
// cache, nothing coalesced or evicted.
func checkCache(e *env, h serve.Health, misses, hits int) {
	c := h.Cache
	for k, v := range map[string]uint64{"cache.hits": c.Hits, "cache.misses": c.Misses, "cache.coalesced": c.Coalesced, "cache.evictions": c.Evictions} {
		e.layer[k] = float64(v)
		e.counts[k] = float64(v)
	}
	if c.Misses != uint64(misses+1) || c.Hits != uint64(hits) || c.Coalesced != 0 || c.Evictions != 0 {
		e.fail("cache counters %+v, plan says %d misses (+1 warm-up) and %d hits", c, misses, hits)
	}
}

// traceServe repeats the request sequences against a fresh daemon whose
// handler is wrapped in a span recorder, splitting each request's latency
// into handler time and transport (HTTP, TCP, client), then checks every
// miss against an in-process Run of the same key.
func traceServe(e *env, pts []sinrconn.Point, in *sinr.Instance, plans [][]serveReq, cacheSize, misses, hits int, keys map[resultKey]serve.ResultJSON) error {
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent := -1
			if v := r.Header.Get(spanHeader); v != "" {
				if id, err := strconv.Atoi(v); err == nil {
					parent = id
				}
			}
			start := e.tr.now()
			h.ServeHTTP(w, r)
			if parent >= 0 {
				e.tr.add("serve.handler", start, e.tr.now(), parent)
			}
		})
	}
	d, _, err := startDaemon(pts, cacheSize, wrap, setupReps)
	if err != nil {
		return err
	}
	runtimeBefore := readGo()
	res, _ := drive(d, plans, e.tr)
	runtimeAfter := readGo()
	h, herr := d.health()
	if err := d.stop(); err != nil {
		return err
	}
	if herr != nil {
		return herr
	}
	untraced := countSet{}
	for k, v := range e.counts {
		untraced[k] = v
	}
	checkServed(e, in, res, false)
	checkCache(e, h, misses, hits)
	if diffs := compareCounts(untraced, e.counts); len(diffs) > 0 {
		e.fail("traced serve counts differ from untraced: %v", diffs)
	}

	handler := map[int]time.Duration{}
	e.tr.mu.Lock()
	for _, s := range e.tr.spans {
		if s.Name == "serve.handler" {
			handler[s.Parent] = s.End - s.Start
		}
	}
	e.tr.mu.Unlock()
	var hitUS, missMS, transportUS []float64
	var total, covered, coveredWall time.Duration
	var nbytes, non200 int
	for _, cr := range res {
		for _, s := range cr {
			total += s.latency
			nbytes += s.bytes
			if s.status != http.StatusOK {
				non200++
			}
			hd, ok := handler[s.span]
			if !ok {
				continue
			}
			covered += hd
			coveredWall += s.latency
			if s.req.miss {
				missMS = append(missMS, ms(hd))
			} else {
				hitUS = append(hitUS, float64(hd)/float64(time.Microsecond))
				transportUS = append(transportUS, float64(s.latency-hd)/float64(time.Microsecond))
			}
		}
	}
	reqs := misses + hits
	e.layer["serve.hit_handler_us_p50"] = quantile(hitUS, 0.5)
	e.layer["serve.miss_handler_ms_p50"] = quantile(missMS, 0.5)
	e.layer["serve.transport_us_p50"] = quantile(transportUS, 0.5)
	e.layer["serve.resp_bytes"] = float64(nbytes) / float64(reqs)
	e.layer["serve.non200"] = float64(non200)
	var g goDelta
	g.add(runtimeBefore, runtimeAfter)
	g.layerMetrics(e.layer)
	e.layer["go.mallocs_per_op"] /= float64(reqs)
	if coveredWall > 0 {
		e.layer["trace.coverage"] = float64(covered) / float64(coveredWall)
	}
	var base time.Duration
	for _, op := range e.ops {
		base += op
	}
	if base > 0 {
		e.layer["trace.overhead_pct"] = 100 * float64(total-base) / float64(base)
	}

	// Every miss must equal an in-process Run of the same key.
	nw, err := sinrconn.Open(pts, sinrconn.WithWorkers(workers))
	if err != nil {
		return err
	}
	defer nw.Close()
	ctx := context.Background()
	for k, want := range keys {
		r, err := nw.Run(ctx, k.p, sinrconn.WithSeed(k.seed))
		if err != nil {
			e.fail("in-process %v seed %d: %v", k.p, k.seed, err)
			continue
		}
		a, err1 := json.Marshal(serve.EncodeResult(r, true))
		b, err2 := json.Marshal(want)
		if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
			e.fail("served %v seed %d differs from the in-process Run", k.p, k.seed)
		}
	}
	return nil
}
