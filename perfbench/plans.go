package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rushprobe"
)

// The plans workload: a router in front of two shards, all rushprobed
// without persistence, serving a heterogeneous population. Each arrival
// is one node-epoch: POST /v1/observe with that node's contacts of its
// next epoch, then GET /v1/schedule/{node}. Advancing the epoch moves
// the node's learned profile, so most fetches miss the plan cache and
// solve, and every call crosses the router→shard hop.
const (
	plansNodes = 1000
	// plansWarmEpochs are posted untimed so every node is past its
	// bootstrap; arrivals then take epochs plansWarmEpochs, +1, ... of
	// each node in turn.
	plansWarmEpochs = 4
	plansEpochs     = 40
	// plansRate is the open-loop arrival rate per second, a quarter of
	// this workload's saturation on a 2-CPU machine; plansSamples of
	// them give a p99 and fifteen p90 windows.
	plansRate    = 100
	plansSamples = 1500
	// Every batchCheckEvery-th closed-loop arrival also scatter-gathers
	// the schedules of the last batchCheckNodes served nodes.
	batchCheckEvery = 100
	batchCheckNodes = 16
)

// buildPlansTrace writes every node-epoch's observe body, one per line,
// node-major.
func buildPlansTrace(seed uint64) func(w io.Writer) error {
	return func(w io.Writer) error {
		for i := 0; i < plansNodes; i++ {
			m, id := newNodeModel(seed, i), nodeID("p", i)
			for e := 0; e < plansEpochs; e++ {
				if _, err := w.Write(append(observeBody(m.epoch(seed, i, id, e)), '\n')); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// spliceBodies merges observe bodies into one.
func spliceBodies(bodies [][]byte) []byte {
	const head, tail = `{"observations":[`, `]}`
	var b bytes.Buffer
	b.WriteString(head)
	for k, body := range bodies {
		if k > 0 {
			b.WriteByte(',')
		}
		b.Write(body[len(head) : len(body)-len(tail)])
	}
	b.WriteString(tail)
	return b.Bytes()
}

// plansTopology is the router and its two shards.
type plansTopology struct {
	router *daemon
	shards []*daemon
}

// all is every daemon of the topology, router first.
func (t *plansTopology) all() []*daemon {
	return append([]*daemon{t.router}, t.shards...)
}

func (t *plansTopology) stop() {
	for _, d := range t.all() {
		d.stop()
	}
}

func startPlans(cfg config) (*plansTopology, float64, error) {
	var extra []string
	if cfg.trace {
		extra = []string{"-trace-ring", strconv.Itoa(traceRing)}
	}
	t0 := time.Now()
	t := &plansTopology{}
	var urls []string
	for k := 0; k < 2; k++ {
		s, err := startDaemon(cfg, fmt.Sprintf("plans-shard%d", k), extra...)
		if err != nil {
			return nil, 0, err
		}
		t.shards = append(t.shards, s)
		urls = append(urls, s.url)
	}
	r, err := startDaemon(cfg, "plans-router", "-route", strings.Join(urls, ","))
	if err != nil {
		return nil, 0, err
	}
	t.router = r
	// The router reports "ok" only once every shard answers it.
	if err := waitHealthy(r.url, 60*time.Second, t.all()...); err != nil {
		t.stop()
		return nil, 0, err
	}
	return t, time.Since(t0).Seconds(), nil
}

// plansRun is one plans run's shared state.
type plansRun struct {
	top    *plansTopology
	bodies [][]byte // node-major: bodies[i*plansEpochs+e]
	perm   []int

	owner sync.Map // node → owning shard URL

	mu       sync.Mutex
	served   []string  // nodes in the order their arrivals completed
	schedMs  []float64 // schedule fetch latencies
	obsMs    []float64 // observe latencies (open loop: from due time)
	batchMs  []float64 // POST /v1/schedules latencies
	hopUs    []float64 // routed minus direct GET, same cached plan
	checked  int
	mismatch []string
}

// arrival runs node-epoch a: observe, then fetch the fresh plan. due is
// the open-loop due time (zero in the closed loop).
func (p *plansRun) arrival(a int, due time.Time) (int64, error) {
	i, e := p.perm[a%plansNodes], plansWarmEpochs+a/plansNodes
	if e >= plansEpochs {
		return 0, fmt.Errorf("arrival %d: population has no epoch %d", a, e)
	}
	node := nodeID("p", i)
	t0 := time.Now()
	if due.IsZero() {
		due = t0
	}
	var resp struct {
		Accepted int `json:"accepted"`
	}
	if _, err := doRetry("POST", p.top.router.url+"/v1/observe", p.bodies[i*plansEpochs+e], &resp); err != nil {
		return 0, err
	}
	if resp.Accepted != obsPerEpoch {
		return 0, fmt.Errorf("node %s epoch %d: accepted %d of %d", node, e, resp.Accepted, obsPerEpoch)
	}
	t1 := time.Now()
	if _, err := doRetry("GET", p.top.router.url+"/v1/schedule/"+node, nil, nil); err != nil {
		return 0, err
	}
	t2 := time.Now()
	p.mu.Lock()
	p.obsMs = append(p.obsMs, ms(t1.Sub(due)))
	p.schedMs = append(p.schedMs, ms(t2.Sub(t1)))
	p.served = append(p.served, node)
	p.mu.Unlock()
	return 1, nil
}

// ownerOf finds the shard holding node: the one whose profile of it
// has observations (any shard answers for an unknown node).
func (p *plansRun) ownerOf(node string) (string, error) {
	if u, ok := p.owner.Load(node); ok {
		return u.(string), nil
	}
	for _, s := range p.top.shards {
		var prof struct {
			Observations int64 `json:"observations"`
		}
		if _, err := getJSON(s.url+"/v1/profile/"+node, &prof); err == nil && prof.Observations > 0 {
			p.owner.Store(node, s.url)
			return s.url, nil
		}
	}
	return "", fmt.Errorf("no shard owns %s", node)
}

// batchCheck scatter-gathers the schedules of recently served nodes
// (whose next arrival is a whole population cycle away, so their plans
// hold still) and checks them against per-node routed GETs and the
// owning shard's direct answer.
func (p *plansRun) batchCheck() error {
	p.mu.Lock()
	if len(p.served) < batchCheckNodes {
		p.mu.Unlock()
		return nil
	}
	nodes := append([]string(nil), p.served[len(p.served)-batchCheckNodes:]...)
	p.mu.Unlock()
	body, err := json.Marshal(map[string][]string{"nodes": nodes})
	if err != nil {
		return err
	}
	var batch struct {
		Schedules []*rushprobe.Schedule `json:"schedules"`
	}
	t0 := time.Now()
	if _, err := doRetry("POST", p.top.router.url+"/v1/schedules", body, &batch); err != nil {
		return err
	}
	batchMs := ms(time.Since(t0))
	var bad []string
	var hops []float64
	if len(batch.Schedules) != len(nodes) {
		bad = append(bad, fmt.Sprintf("batch returned %d schedules for %d nodes", len(batch.Schedules), len(nodes)))
	}
	for k, node := range nodes {
		var routed, direct rushprobe.Schedule
		t0 := time.Now()
		if _, err := doRetry("GET", p.top.router.url+"/v1/schedule/"+node, nil, &routed); err != nil {
			return err
		}
		t1 := time.Now()
		owner, err := p.ownerOf(node)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := doRetry("GET", owner+"/v1/schedule/"+node, nil, &direct); err != nil {
			return err
		}
		hops = append(hops, float64(t1.Sub(t0)-time.Since(t2))/1e3)
		if !sameSchedule(&routed, &direct) {
			bad = append(bad, node+": routed differs from its shard")
		}
		if k < len(batch.Schedules) && !sameSchedule(batch.Schedules[k], &routed) {
			bad = append(bad, node+": batch differs from GET")
		}
	}
	p.mu.Lock()
	p.batchMs = append(p.batchMs, batchMs)
	p.hopUs = append(p.hopUs, hops...)
	p.checked += len(nodes)
	p.mismatch = append(p.mismatch, bad...)
	p.mu.Unlock()
	return nil
}

func runPlans(cfg config) (*outcome, error) {
	out := &outcome{}
	path, err := cached(cfg.work, "plans", cfg.seed, buildPlansTrace(cfg.seed))
	if err != nil {
		return nil, err
	}
	bodies, err := readLines(path)
	if err != nil {
		return nil, err
	}
	if len(bodies) != plansNodes*plansEpochs {
		return nil, fmt.Errorf("plans trace %s has %d bodies, want %d", path, len(bodies), plansNodes*plansEpochs)
	}

	var (
		top    *plansTopology
		setups []float64
	)
	for k := 0; k < setupStarts; k++ {
		t, s, err := startPlans(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		if k < setupStarts-1 {
			t.stop()
		} else {
			top = t
		}
	}
	defer top.stop()
	p := &plansRun{top: top, bodies: bodies, perm: rand.New(rand.NewPCG(cfg.seed, 0x9a)).Perm(plansNodes)}

	// Untimed warm-up: every node's bootstrap epochs, 50 nodes a batch,
	// then a second of arrivals.
	var warmFailed int64
	for e := 0; e < plansWarmEpochs; e++ {
		for start := 0; start < plansNodes; start += 50 {
			var group [][]byte
			for i := start; i < start+50; i++ {
				group = append(group, bodies[i*plansEpochs+e])
			}
			var resp struct {
				Accepted int `json:"accepted"`
			}
			if _, err := doRetry("POST", top.router.url+"/v1/observe", spliceBodies(group), &resp); err != nil || resp.Accepted != 50*obsPerEpoch {
				warmFailed++
			}
		}
	}
	var next atomic.Int64
	// closedArrivals runs arrivals back to back; traced, it also keeps
	// each one's client span, as a traced open loop would.
	closedArrivals := func(dur time.Duration, traced bool) loopResult {
		var mu sync.Mutex
		var spans []clientSpan
		return closedLoop(dur, procs(), func(w, k int) (int64, error) {
			a := int(next.Add(1) - 1)
			if a%batchCheckEvery == batchCheckEvery-1 {
				if err := p.batchCheck(); err != nil {
					return 0, err
				}
			}
			t0 := time.Now()
			n, err := p.arrival(a, time.Time{})
			if traced {
				mu.Lock()
				spans = append(spans, clientSpan{Start: t0, Dur: time.Since(t0)})
				mu.Unlock()
			}
			return n, err
		})
	}
	warm := closedArrivals(time.Second, false)
	p.mu.Lock()
	p.obsMs, p.schedMs = nil, nil
	p.mu.Unlock()

	scrapeAll := func() (scrape, scrape, error) {
		var shards []scrape
		for _, s := range top.shards {
			sc, err := scrapeMetrics(s.url)
			if err != nil {
				return nil, nil, err
			}
			shards = append(shards, sc)
		}
		rs, err := scrapeMetrics(top.router.url)
		return sum(shards...), rs, err
	}
	before, routerBefore, err := scrapeAll()
	if err != nil {
		return nil, err
	}
	nOpen, closedDur := phaseSplit(cfg.seconds, plansRate, plansSamples)
	offset := int(next.Load())
	open := openLoop(plansRate, nOpen, procs(), func(i int, due time.Time) (int64, error) {
		return p.arrival(offset+i, due)
	})
	next.Store(int64(offset + nOpen))
	p.mu.Lock()
	obsMs, schedMs := p.obsMs, p.schedMs
	p.mu.Unlock()
	var serverReqs []joined
	if cfg.trace {
		// Request IDs are minted per daemon, so each shard joins alone.
		for _, s := range top.shards {
			spans, err := fetchTraces(s.url, traceRing)
			if err != nil {
				return nil, err
			}
			serverReqs = append(serverReqs, joinSpans(nil, spans)...)
		}
	}
	var (
		sat, satTraced      loopResult
		cpuRates, cpuTraced []float64
	)
	if cfg.trace {
		sat, cpuRates, err = cpuWindows(top.all(), func() loopResult { return closedArrivals(closedDur/2, false) })
		if err == nil {
			satTraced, cpuTraced, err = cpuWindows(top.all(), func() loopResult { return closedArrivals(closedDur-closedDur/2, true) })
		}
	} else {
		sat, cpuRates, err = cpuWindows(top.all(), func() loopResult { return closedArrivals(closedDur, false) })
	}
	if err != nil {
		return nil, err
	}
	after, routerAfter, err := scrapeAll()
	if err != nil {
		return nil, err
	}
	if err := p.batchCheck(); err != nil {
		return nil, err
	}
	rss := 0.0
	for _, d := range top.all() {
		v, err := d.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += v
	}

	out.attempted = warm.ops + open.ops + sat.ops + satTraced.ops + plansWarmEpochs*plansNodes/50
	out.failed = warmFailed + warm.failed + open.failed + sat.failed + satTraced.failed
	out.check("no-failed-arrivals", out.failed == 0, "%d of %d operations failed", out.failed, out.attempted)
	out.check("routed-equals-direct-and-batch", len(p.mismatch) == 0 && p.checked > 0,
		"%d nodes checked, mismatches: %v", p.checked, p.mismatch)
	genLag, _ := percentile(open.lagMs, 0.99)
	out.check("generator-on-time", genLag <= maxGenLagMs,
		"open-loop generator lag p99 %.2f ms (limit %.0f ms)", genLag, maxGenLagMs)
	p50 := median(open.latMs)
	p90, ok := windowedPercentile(open.latMs, 0.90)
	p99, ok99 := percentile(open.latMs, 0.99)
	out.check("tail-has-samples", ok && ok99, "%d open-loop samples", len(open.latMs))
	obs99, _ := percentile(obsMs, 0.99)
	sched99, _ := percentile(schedMs, 0.99)
	rate := median(append(sat.windowRates(rateWindow), satTraced.windowRates(rateWindow)...))
	perCPU := median(append(cpuRates, cpuTraced...))
	out.report = map[string]float64{
		"setup_s":         median(setups),
		"observe_p50_ms":  median(obsMs),
		"observe_p99_ms":  obs99,
		"schedule_p50_ms": median(schedMs),
		"schedule_p99_ms": sched99,
		"arrival_p50_ms":  p50,
		"arrival_p90_ms":  p90,
		"arrival_p99_ms":  p99,
		"arrival_samples": float64(len(open.latMs)),
		"plans_per_s":     rate,
		"plans_per_cpu_s": perCPU,
		"peak_rss_mb":     rss,
		"batch_checked":   float64(p.checked),
		"open_loop_rate":  plansRate,
		"closed_arrivals": float64(sat.ops + satTraced.ops),
		"epochs_per_node": float64(next.Load()) / plansNodes,
	}
	if !cfg.trace {
		out.metrics = map[string]float64{
			"setup_s":         median(setups),
			"units_per_cpu_s": perCPU,
			"peak_rss_mb":     rss,
		}
		return out, nil
	}
	layer := zeroLayers()
	var obsSelf, schedSelf []float64
	for _, j := range serverReqs {
		switch {
		case strings.HasPrefix(j.http.Detail, "POST /v1/observe"):
			obsSelf = append(obsSelf, float64(j.selfNs())/1e3)
		case strings.HasPrefix(j.http.Detail, "GET /v1/schedule/"):
			schedSelf = append(schedSelf, float64(j.selfNs())/1e3)
		}
	}
	out.check("spans-joined", len(schedSelf) >= nOpen,
		"%d schedule fetches found in the shards' traces, %d in the open-loop phase alone", len(schedSelf), nOpen)
	layer["rushprobed.observe_self_us"] = median(obsSelf)
	layer["rushprobed.schedule_self_us"] = median(schedSelf)
	daemonLayers(layer, before, after)
	layer["shardroute.hop_us"] = median(p.hopUs)
	layer["shardroute.batch_ms"] = median(p.batchMs)
	routed := routerAfter.labeled("rushprobe_router_routed_observations")
	prev := routerBefore.labeled("rushprobe_router_routed_observations")
	var maxShard, total float64
	for shard, v := range routed {
		d := v - prev[shard]
		total += d
		maxShard = max(maxShard, d)
	}
	if total > 0 {
		layer["shardroute.skew"] = maxShard / (total / float64(len(routed)))
	}
	layer["harness.gen_lag_p99_ms"] = genLag
	layer["harness.sent"] = float64(out.attempted)
	layer["harness.trace_overhead_pct"] = overheadPct(sat, satTraced)
	out.metrics = layer
	return out, nil
}
