package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"rushprobe"
)

// The ingest workload: one rushprobed shard with -snaplog, restored
// from a log of ingestNodes mature nodes, takes gateway batches of
// batchObs observations spread across them — open loop at ingestRate,
// then closed loop at saturation — and ends with POST /v1/snapshot.
// It is the write and persistence path, and makes no solves.
//
// The daemon's periodic delta loop is off (-snaplog-interval 0): its
// appends write under the profile-shard locks, and on a shared disk
// their stalls made every latency and throughput figure unsteady from
// run to run. The traced run measures the delta path through the
// fleet's public delta API instead.
const (
	ingestNodes = 100_000
	// matureEpochs of traffic are folded into the log, so every node is
	// past its bootstrap and the live traffic (epoch matureEpochs) folds
	// one more epoch per node as it arrives.
	matureEpochs = 5
	batchObs     = 100
	poolBatches  = 2048
	// ingestRate is the open-loop rate in batches per second, about a
	// quarter of this workload's saturation on a 2-CPU machine, and
	// ingestSamples of them are enough for a p99 and thirty p90
	// windows; the rest of the run goes to the saturation phase, whose
	// CPU per observation moves with the few GC cycles of a 400 MB heap
	// that fall into it.
	ingestRate    = 600
	ingestSamples = 3000
	// ingestStarts is fewer than setupStarts: each start restores the
	// whole population.
	ingestStarts = 3
	sampleNodes  = 32
)

// newFleet builds a fleet configured like a rushprobed started with
// default flags, so its snapshot log restores in the daemon and the
// daemon's log restores here.
func newFleet() (*rushprobe.Fleet, error) {
	return rushprobe.NewFleet(
		rushprobe.Roadside(rushprobe.WithZetaTarget(24), rushprobe.WithBudgetFraction(1.0/1000)),
		rushprobe.WithBootstrapEpochs(3),
		rushprobe.WithShards(16),
		rushprobe.WithFleetMechanism(rushprobe.SNIPOPT),
		rushprobe.WithDriftDetector("cusum"),
	)
}

// buildIngestLog writes the snapshot log of ingestNodes nodes that have
// each reported matureEpochs epochs of contacts.
func buildIngestLog(seed uint64) func(w io.Writer) error {
	return func(w io.Writer) error {
		f, err := newFleet()
		if err != nil {
			return err
		}
		const chunk = 1000
		batch := make([]rushprobe.Observation, 0, chunk*matureEpochs*obsPerEpoch)
		for start := 0; start < ingestNodes; start += chunk {
			batch = batch[:0]
			for i := start; i < start+chunk; i++ {
				m, id := newNodeModel(seed, i), nodeID("n", i)
				for e := 0; e < matureEpochs; e++ {
					batch = append(batch, m.epoch(seed, i, id, e)...)
				}
			}
			if got := f.Observe(batch); got != len(batch) {
				return fmt.Errorf("generator: fleet accepted %d of %d observations", got, len(batch))
			}
		}
		return f.SnapshotBinary(w)
	}
}

// ingestPool is the traffic: poolBatches gateway batches, each of
// batchObs contacts from nodes drawn uniformly from the population, all
// in epoch matureEpochs. Any replay of them is accepted in full.
func ingestPool(seed uint64) [][]byte {
	r := rand.New(rand.NewPCG(seed, 0x1a2b3c))
	pool := make([][]byte, poolBatches)
	obs := make([]rushprobe.Observation, batchObs)
	for b := range pool {
		for k := range obs {
			i := r.IntN(ingestNodes)
			obs[k] = newNodeModel(seed, i).observation(r, nodeID("n", i), matureEpochs)
		}
		pool[b] = observeBody(obs)
	}
	return pool
}

// postBatch sends one observe batch and fails unless all of it was
// accepted. With spans non-nil it records the request's client span.
func postBatch(url string, body []byte, spans *[]clientSpan) (int64, error) {
	var resp struct {
		Accepted int `json:"accepted"`
	}
	t0 := time.Now()
	id, err := doRetry("POST", url+"/v1/observe", body, &resp)
	if spans != nil {
		*spans = append(*spans, clientSpan{Request: id, Start: t0, Dur: time.Since(t0)})
	}
	if err != nil {
		return 0, err
	}
	if resp.Accepted != batchObs {
		return int64(resp.Accepted), fmt.Errorf("accepted %d of %d", resp.Accepted, batchObs)
	}
	return int64(resp.Accepted), nil
}

type healthz struct {
	Snapshot struct {
		LastSaveDurationSeconds    float64 `json:"lastSaveDurationSeconds"`
		LastRestoreDurationSeconds float64 `json:"lastRestoreDurationSeconds"`
	} `json:"snapshot"`
	Nodes        int   `json:"nodes"`
	Observations int64 `json:"observations"`
}

// linkOrCopy gives the daemon its own path to the input log. A hard
// link is enough: the daemon only reads the log it restores, and its
// compactions rename a new file over the path.
func linkOrCopy(dst, src string) error {
	os.Remove(dst)
	if os.Link(src, dst) == nil {
		return nil
	}
	return copyFile(dst, src)
}

func runIngest(cfg config) (*outcome, error) {
	out := &outcome{}
	logPath, err := cached(cfg.work, "ingest", cfg.seed, buildIngestLog(cfg.seed))
	if err != nil {
		return nil, err
	}
	pool := ingestPool(cfg.seed)
	live := filepath.Join(cfg.work, "ingest-live.snaplog")
	defer os.Remove(live)
	args := []string{"-snaplog", live, "-snaplog-interval", "0"}
	if cfg.trace {
		args = append(args, "-trace-ring", strconv.Itoa(traceRing))
	}

	// Set-up: restore the log and answer healthz, several times. Each
	// start's VmHWM is taken when it stops; the restore sets most of it.
	var (
		d                      *daemon
		setups, restores, hwms []float64
		restored               int64 // observations the restored fleet had already counted
	)
	for k := 0; k < ingestStarts; k++ {
		if err := linkOrCopy(live, logPath); err != nil {
			return nil, err
		}
		t0 := time.Now()
		d, err = startDaemon(cfg, "ingest-shard", args...)
		if err != nil {
			return nil, err
		}
		if err := waitHealthy(d.url, 120*time.Second, d); err != nil {
			d.stop()
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		var h healthz
		if _, err := getJSON(d.url+"/v1/healthz", &h); err != nil {
			d.stop()
			return nil, err
		}
		restores = append(restores, h.Snapshot.LastRestoreDurationSeconds)
		restored = h.Observations
		if h.Nodes != ingestNodes {
			out.check("restored-nodes", false, "daemon restored %d nodes, want %d", h.Nodes, ingestNodes)
		}
		if k < ingestStarts-1 {
			rss, err := d.peakRSSMB()
			d.stop()
			if err != nil {
				return nil, err
			}
			hwms = append(hwms, rss)
		}
	}
	defer d.stop()
	// Flush the set-up's log writes so their writeback does not land in
	// the measured phases.
	syscall.Sync()

	// Untimed warm-up: connections, the daemon's heap, the page cache.
	warm := closedLoop(time.Second, procs(), func(w, k int) (int64, error) {
		return postBatch(d.url, pool[(w+k*procs())%poolBatches], nil)
	})
	next := int(warm.ops)

	before, err := scrapeMetrics(d.url)
	if err != nil {
		return nil, err
	}
	nOpen, closedDur := phaseSplit(cfg.seconds, ingestRate, ingestSamples)
	var spans [][]clientSpan
	if cfg.trace {
		spans = make([][]clientSpan, nOpen)
	}
	open := openLoop(ingestRate, nOpen, procs(), func(i int, _ time.Time) (int64, error) {
		var sp *[]clientSpan
		if cfg.trace {
			sp = &spans[i]
		}
		return postBatch(d.url, pool[(next+i)%poolBatches], sp)
	})
	next += nOpen
	var joinedSpans []joined
	if cfg.trace {
		server, err := fetchTraces(d.url, traceRing)
		if err != nil {
			return nil, err
		}
		var flat []clientSpan
		for _, s := range spans {
			flat = append(flat, s...)
		}
		joinedSpans = joinSpans(flat, server)
	}
	// The traced run splits its saturation phase: the first half sends
	// untraced, the second records client spans, and the throughput
	// difference is the tracing overhead.
	satPhase := func(dur time.Duration, traced bool, offset int) loopResult {
		spans := make([][]clientSpan, procs())
		return closedLoop(dur, procs(), func(w, k int) (int64, error) {
			var sp *[]clientSpan
			if traced {
				sp = &spans[w]
			}
			return postBatch(d.url, pool[(offset+w+k*procs())%poolBatches], sp)
		})
	}
	var (
		sat, satTraced      loopResult
		cpuRates, cpuTraced []float64
	)
	if cfg.trace {
		sat, cpuRates, err = cpuWindows([]*daemon{d}, func() loopResult { return satPhase(closedDur/2, false, next) })
		if err == nil {
			satTraced, cpuTraced, err = cpuWindows([]*daemon{d}, func() loopResult {
				return satPhase(closedDur-closedDur/2, true, next+int(sat.ops))
			})
		}
	} else {
		sat, cpuRates, err = cpuWindows([]*daemon{d}, func() loopResult { return satPhase(closedDur, false, next) })
	}
	if err != nil {
		return nil, err
	}
	measuredOps := open.ops + sat.ops + satTraced.ops
	sent := (warm.ops + measuredOps) * batchObs
	after, err := scrapeMetrics(d.url)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	if _, err := doRetry("POST", d.url+"/v1/snapshot", nil, nil); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	snapshotS := time.Since(t0).Seconds()
	var h healthz
	if _, err := getJSON(d.url+"/v1/healthz", &h); err != nil {
		return nil, err
	}
	fi, err := os.Stat(live)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	hwms = append(hwms, rss)

	failedOps := warm.failed + open.failed + sat.failed + satTraced.failed
	out.attempted = warm.ops + measuredOps
	out.failed = failedOps
	accepted := int64(delta(before, after, "rushprobe_observations_accepted_total"))
	out.check("accepted-equals-sent", failedOps == 0 && h.Observations-restored == sent && accepted == measuredOps*batchObs,
		"sent %d, daemon accepted %d in total (%d of %d in the measured phases), %d requests failed",
		sent, h.Observations-restored, accepted, measuredOps*batchObs, failedOps)
	f, err := checkRestoredSchedules(out, d, live, cfg.seed)
	if err != nil {
		return nil, err
	}

	genLag, _ := percentile(open.lagMs, 0.99)
	out.check("generator-on-time", genLag <= maxGenLagMs,
		"open-loop generator lag p99 %.2f ms (limit %.0f ms)", genLag, maxGenLagMs)
	p50 := median(open.latMs)
	p90, ok := windowedPercentile(open.latMs, 0.90)
	p99, ok99 := percentile(open.latMs, 0.99)
	out.check("tail-has-samples", ok && ok99, "%d open-loop samples", len(open.latMs))
	satRate := median(append(sat.windowRates(rateWindow), satTraced.windowRates(rateWindow)...))
	perCPU := median(append(cpuRates, cpuTraced...))
	peak := median(hwms)

	out.report = map[string]float64{
		"setup_s":         median(setups),
		"observe_p50_ms":  p50,
		"observe_p90_ms":  p90,
		"observe_p99_ms":  p99,
		"observe_samples": float64(len(open.latMs)),
		"obs_per_s":       satRate,
		"obs_per_cpu_s":   perCPU,
		"snapshot_s":      snapshotS,
		"peak_rss_mb":     peak,
		"run_rss_mb":      rss,
	}
	if !cfg.trace {
		out.metrics = map[string]float64{
			"setup_s":         median(setups),
			"units_per_cpu_s": perCPU,
			"peak_rss_mb":     peak,
		}
		return out, nil
	}
	var self, gap []float64
	for _, j := range joinedSpans {
		self = append(self, float64(j.selfNs())/1e3)
		gap = append(gap, float64(j.gapNs())/1e3)
	}
	out.check("spans-joined", len(joinedSpans) >= nOpen*9/10,
		"%d of %d open-loop requests joined to server spans", len(joinedSpans), nOpen)
	layer := zeroLayers()
	layer["rushprobed.observe_self_us"] = median(self)
	layer["rushprobed.client_gap_us"] = median(gap)
	daemonLayers(layer, before, after)
	layer["snaplog.restore_s"] = median(restores)
	layer["snaplog.compact_s"] = h.Snapshot.LastSaveDurationSeconds
	layer["snaplog.bytes_per_node"] = float64(fi.Size()) / float64(h.Nodes)
	nodes, size, dur, err := measureDelta(f, pool[:ingestRate], filepath.Join(cfg.work, "ingest-delta.snaplog"))
	if err != nil {
		return nil, err
	}
	layer["snaplog.delta_ms"] = ms(dur)
	layer["snaplog.delta_nodes"] = float64(nodes)
	layer["snaplog.delta_bytes"] = float64(size)
	layer["harness.gen_lag_p99_ms"] = genLag
	layer["harness.sent"] = float64(sent)
	layer["harness.trace_overhead_pct"] = overheadPct(sat, satTraced)
	out.metrics = layer
	return out, nil
}

// checkRestoredSchedules reads the compacted log back through the
// fleet's public restore and checks that it serves the same schedules
// as the daemon for a sample of nodes. It returns the restored fleet.
func checkRestoredSchedules(out *outcome, d *daemon, logPath string, seed uint64) (*rushprobe.Fleet, error) {
	f, err := newFleet()
	if err != nil {
		return nil, err
	}
	file, err := os.Open(logPath)
	if err != nil {
		return nil, err
	}
	info, err := f.RestoreBinary(file)
	file.Close()
	if err != nil {
		return nil, fmt.Errorf("restore the compacted log: %w", err)
	}
	out.check("log-restores", !info.Truncated && f.Stats().Nodes == ingestNodes,
		"restored %d nodes, truncated=%v", f.Stats().Nodes, info.Truncated)
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	mismatched := 0
	for k := 0; k < sampleNodes; k++ {
		node := nodeID("n", r.IntN(ingestNodes))
		var served rushprobe.Schedule
		if _, err := doRetry("GET", d.url+"/v1/schedule/"+node, nil, &served); err != nil {
			return nil, err
		}
		want, err := f.Schedule(node)
		if err != nil {
			return nil, err
		}
		if !sameSchedule(&served, want) {
			mismatched++
		}
	}
	out.check("restored-log-serves-same-schedules", mismatched == 0,
		"%d of %d sampled nodes differ", mismatched, sampleNodes)
	return f, nil
}

// measureDelta folds one second of open-loop traffic into f and appends
// the nodes it dirtied to a scratch log through the fleet's delta API,
// with the fsync the daemon's delta loop does: what one delta append of
// the daemon writes and costs.
func measureDelta(f *rushprobe.Fleet, batches [][]byte, path string) (nodes int, size int64, d time.Duration, err error) {
	// Start from a clean fleet, as after the daemon's previous append.
	if _, err := f.SnapshotBinaryDelta(io.Discard); err != nil {
		return 0, 0, 0, err
	}
	for _, b := range batches {
		var req struct {
			Observations []rushprobe.Observation `json:"observations"`
		}
		if err := json.Unmarshal(b, &req); err != nil {
			return 0, 0, 0, err
		}
		f.Observe(req.Observations)
	}
	file, err := os.Create(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.Remove(path)
	defer file.Close()
	t0 := time.Now()
	if nodes, err = f.SnapshotBinaryDelta(file); err != nil {
		return 0, 0, 0, err
	}
	if err := file.Sync(); err != nil {
		return 0, 0, 0, err
	}
	d = time.Since(t0)
	fi, err := file.Stat()
	if err != nil {
		return 0, 0, 0, err
	}
	return nodes, fi.Size(), d, nil
}

// sameSchedule compares two schedules by their JSON encoding.
func sameSchedule(a, b *rushprobe.Schedule) bool {
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	return err1 == nil && err2 == nil && bytes.Equal(ja, jb)
}
