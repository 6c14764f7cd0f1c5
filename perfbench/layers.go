package main

import "time"

// setupStarts is how many times a workload sets up; setup_s is the
// median.
const setupStarts = 15

// rateWindow is the width of the windows a saturation phase's
// throughput is the median over.
const rateWindow = time.Second

// traceRing is the daemons' span ring in traced runs: large enough to
// hold every span of the open-loop phase.
const traceRing = 1 << 16

// maxGenLagMs is the generator lateness (p99) beyond which an
// open-loop run is invalid: the generator itself fell behind its
// schedule, so the offered load was not the stated rate. It allows the
// tens of milliseconds a busy shared host can deschedule the harness.
const maxGenLagMs = 25.0

// zeroLayers returns every per-layer metric at 0, the value of a layer
// the workload does not run.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// daemonLayers fills the per-layer metrics every daemon workload reads
// from /metrics, as deltas between two scrapes (summed over daemons).
func daemonLayers(layer map[string]float64, before, after scrape) {
	layer["rushprobed.gc_pause_ms"] = delta(before, after, "rushprobe_gc_pause_seconds_total") * 1e3
	layer["rushprobed.gc_cycles"] = delta(before, after, "rushprobe_gc_cycles_total")
	layer["rushprobed.heap_alloc_mb"] = after.family("rushprobe_heap_alloc_bytes") / (1 << 20)
	layer["fleet.ingest_batch_us"] = histMean(before, after, "rushprobe_ingest_batch_seconds") * 1e6
	layer["fleet.schedule_us"] = histMean(before, after, "rushprobe_schedule_seconds") * 1e6
	// Base: schedule lookups that reached the shared plan cache, i.e.
	// hits plus misses (each miss is one solve).
	hits := delta(before, after, "rushprobe_plan_cache_hits_total")
	misses := delta(before, after, "rushprobe_plan_cache_misses_total")
	if hits+misses > 0 {
		layer["fleet.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
	layer["opt.solves"] = delta(before, after, "rushprobe_plan_solves_total")
	layer["opt.solve_ms"] = histMean(before, after, "rushprobe_solve_seconds") * 1e3
}

// overheadPct is how much slower the traced half of a saturation phase
// ran than the untraced half, in percent of the untraced rate.
func overheadPct(untraced, traced loopResult) float64 {
	ru := float64(untraced.units) / untraced.elapsed.Seconds()
	rt := float64(traced.units) / traced.elapsed.Seconds()
	if ru == 0 {
		return 0
	}
	return 100 * (ru - rt) / ru
}
