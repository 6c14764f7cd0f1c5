package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"rushprobe"
)

// The cosim workload: in-process rushprobe.SimulateFleet with SNIP-OPT
// and a quarter of the population drifting mid-run — the
// paper-reproduction loop. About half its CPU is the DES and simulator
// and most of the rest plan solving; it has no HTTP and no persistence.
const (
	cosimNodes  = 200
	cosimEpochs = 10
	cosimDrift  = 0.25
	// cosimMinRuns is the fewest timed population runs a run reports.
	cosimMinRuns = 3
	// setupNodes sizes the set-up population: large enough that timer
	// and scheduling jitter are a small part of its time.
	setupNodes = 10
)

func simulateFleet(seed uint64, nodes, epochs, parallelism int) (*rushprobe.FleetSimSummary, time.Duration, error) {
	t0 := time.Now()
	res, err := rushprobe.SimulateFleet(rushprobe.Roadside(), rushprobe.SNIPOPT,
		rushprobe.WithNodes(nodes), rushprobe.WithEpochs(epochs), rushprobe.WithSeed(seed),
		rushprobe.WithParallelism(parallelism), rushprobe.WithDrift(cosimDrift, 0, 0))
	return res, time.Since(t0), err
}

// resultDigest hashes the co-sim's deterministic result: everything but
// the wall-clock stage timings.
func resultDigest(res *rushprobe.FleetSimSummary) (string, error) {
	c := *res
	c.StageTimings = nil
	b, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func runCosim(cfg config) (*outcome, error) {
	out := &outcome{}
	var setups []float64
	for k := 0; k < setupStarts; k++ {
		// Set-up: a one-epoch run of a small population, which builds
		// the scenario, the fleet, each node's ground truth and oracle
		// plan, and the bootstrap plans.
		_, d, err := simulateFleet(cfg.seed+uint64(k), setupNodes, 1, 1)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}

	// The serial run is the seed's reference: every parallel run must
	// reproduce it, and so must every later serial run of this seed.
	ref, refWall, err := simulateFleet(cfg.seed, cosimNodes, cosimEpochs, 1)
	if err != nil {
		return nil, err
	}
	refDigest, err := resultDigest(ref)
	if err != nil {
		return nil, err
	}
	refPath := filepath.Join(cfg.work, fmt.Sprintf("cosim-%d.ref", cfg.seed))
	if prev, err := os.ReadFile(refPath); err == nil {
		out.check("matches-seed-reference", string(prev) == refDigest,
			"serial result digest %s, recorded reference %s", refDigest[:12], string(prev)[:min(12, len(prev))])
	} else if err := os.WriteFile(refPath, []byte(refDigest), 0o644); err != nil {
		return nil, err
	}
	out.attempted = 1
	if cfg.trace {
		return cosimLayers(cfg, out, ref, refWall)
	}

	var walls, rates, perCPU []float64
	solves := ref.Stats.PlanSolves
	mismatched := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for len(walls) < cosimMinRuns || time.Now().Before(deadline) {
		cpu0, err := selfCPUSeconds()
		if err != nil {
			return nil, err
		}
		res, d, err := simulateFleet(cfg.seed, cosimNodes, cosimEpochs, procs())
		if err != nil {
			return nil, err
		}
		cpu1, err := selfCPUSeconds()
		if err != nil {
			return nil, err
		}
		dg, err := resultDigest(res)
		if err != nil {
			return nil, err
		}
		if dg != refDigest || res.Stats.PlanSolves != solves {
			mismatched++
		}
		walls = append(walls, ms(d))
		rates = append(rates, float64(cosimNodes*cosimEpochs)/d.Seconds())
		perCPU = append(perCPU, float64(cosimNodes*cosimEpochs)/(cpu1-cpu0))
	}
	out.attempted += int64(len(walls))
	out.check("parallel-equals-serial", mismatched == 0,
		"%d of %d parallel runs differ from the serial reference (%d solves)", mismatched, len(walls), solves)
	rss, err := vmHWM("/proc/self/status")
	if err != nil {
		return nil, err
	}
	// A population run is one unit request; with only a few per run its
	// tail is one of the slowest runs (nearest rank).
	tail, _ := percentile(walls, 0.90)
	out.report = map[string]float64{
		"setup_s":                 median(setups),
		"cosim_node_epochs_per_s": median(rates),
		"node_epochs_per_cpu_s":   median(perCPU),
		"cosim_run_p50_ms":        median(walls),
		"cosim_run_p90_ms":        tail,
		"cosim_runs":              float64(len(walls)),
		"opt_solves":              float64(solves),
		"distinct_plans":          float64(ref.DistinctPlans),
		"peak_rss_mb":             rss,
	}
	out.metrics = map[string]float64{
		"setup_s":         median(setups),
		"units_per_cpu_s": median(perCPU),
		"peak_rss_mb":     rss,
	}
	return out, nil
}

// cosimLayers is the traced cosim run: the serial reference again under
// a CPU profile, its stage timings, and the profile summed by package.
// The profiled run's slowdown over the unprofiled reference is the
// tracing overhead.
func cosimLayers(cfg config, out *outcome, ref *rushprobe.FleetSimSummary, refWall time.Duration) (*outcome, error) {
	profPath := filepath.Join(cfg.work, "cosim.cpu.pprof")
	defer os.Remove(profPath)
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	res, wall, simErr := simulateFleet(cfg.seed, cosimNodes, cosimEpochs, 1)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err := f.Close(); err != nil {
		return nil, err
	}
	if simErr != nil {
		return nil, simErr
	}
	dg, err := resultDigest(res)
	if err != nil {
		return nil, err
	}
	refDigest, _ := resultDigest(ref)
	out.attempted++
	out.check("profiled-equals-reference", dg == refDigest, "profiled serial run digest %s, reference %s", dg[:12], refDigest[:12])
	shares, err := profileShares(profPath)
	if err != nil {
		return nil, err
	}

	layer := zeroLayers()
	var ingest, advance, sched float64
	for _, st := range res.StageTimings {
		ingest += st.IngestSeconds
		advance += st.AdvanceSeconds
		sched += st.ScheduleSeconds
	}
	layer["fleet.cosim_ingest_s"] = ingest
	layer["fleet.cosim_advance_s"] = advance
	layer["fleet.cosim_schedule_s"] = sched
	// Serial, so the stage timings are wall-exclusive of the rest.
	layer["sim.cosim_self_s"] = wall.Seconds() - ingest - advance - sched
	layer["opt.solves"] = float64(res.Stats.PlanSolves)
	if res.Stats.PlanSolves > 0 {
		// CPU time in package opt per solve.
		layer["opt.solve_ms"] = shares.pkg("rushprobe/internal/opt") * wall.Seconds() * 1e3 / float64(res.Stats.PlanSolves)
	}
	lookups := float64(res.Stats.PlanSolves + res.Stats.PlanCacheHits)
	if lookups > 0 {
		layer["fleet.plan_cache_hit_ratio"] = float64(res.Stats.PlanCacheHits) / lookups
	}
	layer["des.cpu_share"] = shares.pkg("rushprobe/internal/des")
	layer["sim.cpu_share"] = shares.pkg("rushprobe/internal/sim")
	layer["opt.cpu_share"] = shares.pkg("rushprobe/internal/opt")
	layer["runtime.gc_cpu_share"] = shares.gc
	layer["rushprobed.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	layer["rushprobed.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	layer["rushprobed.heap_alloc_mb"] = float64(ms1.HeapAlloc) / (1 << 20)
	layer["harness.sent"] = float64(cosimNodes * cosimEpochs)
	layer["harness.trace_overhead_pct"] = 100 * (wall.Seconds() - refWall.Seconds()) / refWall.Seconds()
	out.metrics = layer
	out.report = map[string]float64{
		"serial_wall_s":   refWall.Seconds(),
		"profiled_wall_s": wall.Seconds(),
		"profile_total_s": shares.total,
		"opt_solves":      float64(res.Stats.PlanSolves),
	}
	return out, nil
}

// selfCPUSeconds is the CPU time (user + system) the harness process
// has used.
func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

// cpuShares is a CPU profile summed by package.
type cpuShares struct {
	flat  map[string]float64 // seconds by package path
	total float64
	gc    float64 // share of samples under the GC workers and assists
}

func (c cpuShares) pkg(path string) float64 {
	if c.total == 0 {
		return 0
	}
	return c.flat[path] / c.total
}

// profileShares runs `go tool pprof -top` on a CPU profile and sums
// flat time by package.
func profileShares(path string) (cpuShares, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", path)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return cpuShares{}, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return parsePprofTop(stdout.String())
}

// parsePprofTop sums `pprof -top` rows (flat flat% sum% cum cum% name)
// by the package of each function.
func parsePprofTop(text string) (cpuShares, error) {
	c := cpuShares{flat: map[string]float64{}}
	var gcCum float64
	header := false
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 5 && fields[0] == "flat" {
			header = true
			continue
		}
		if !header || len(fields) < 6 {
			continue
		}
		flat, err1 := time.ParseDuration(fields[0])
		cum, err2 := time.ParseDuration(fields[3])
		if err1 != nil || err2 != nil {
			return c, fmt.Errorf("unparsed pprof row %q", line)
		}
		name := strings.Join(fields[5:], " ")
		c.flat[funcPackage(name)] += flat.Seconds()
		c.total += flat.Seconds()
		switch name {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc":
			gcCum += cum.Seconds()
		}
	}
	if !header {
		return c, errors.New("no pprof -top table")
	}
	if c.total > 0 {
		c.gc = gcCum / c.total
	}
	return c, nil
}

// funcPackage is the package path of a symbol such as
// "rushprobe/internal/des.(*Sim).step".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}
