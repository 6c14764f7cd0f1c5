package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRankNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{1000, 0.99, 990, true},  // ranks 991..1000 lie beyond
		{999, 0.99, 990, false},  // only 9 beyond
		{2000, 0.99, 1980, true}, // 20 beyond
		{20, 0.5, 10, true},
		{3, 0.5, 2, false},
		{1, 0.99, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported ok")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
}

func TestWindowedPercentileIgnoresOneDisturbedStretch(t *testing.T) {
	// 1000 samples of 1 ms with a 150-sample stall at 1000 ms: enough
	// to own the whole-phase p90, confined to a few of the windows.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 1
		if i >= 300 && i < 450 {
			xs[i] = 1000
		}
	}
	if whole, _ := percentile(xs, 0.9); whole != 1000 {
		t.Fatalf("whole-phase p90 = %g, want the stall's 1000", whole)
	}
	got, ok := windowedPercentile(xs, 0.9)
	if got != 1 || !ok {
		t.Errorf("windowed p90 = %g, %v; want 1, true", got, ok)
	}
	// Too few samples for two windows: the plain percentile.
	short := xs[:150]
	want, wantOK := percentile(short, 0.9)
	if got, ok := windowedPercentile(short, 0.9); got != want || ok != wantOK {
		t.Errorf("short windowed p90 = %g, %v; want %g, %v", got, ok, want, wantOK)
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{10, 30}}, 80},
		{"overlapping children count once", []interval{{10, 30}, {20, 40}}, 70},
		{"children clipped to the parent", []interval{{-5, 2}, {90, 120}}, 88},
		{"nested child", []interval{{10, 60}, {20, 30}}, 50},
		{"child outside the parent", []interval{{150, 160}}, 100},
		{"all covered", []interval{{0, 50}, {50, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestJoinSpansByRequestID(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	server := []serverSpan{
		{Request: "req-1", Stage: "ingest", Start: at(10), Duration: int64(50 * time.Millisecond)},
		{Request: "req-1", Stage: "http", Detail: "POST /v1/observe", Start: at(0), Duration: int64(100 * time.Millisecond)},
		{Request: "req-2", Stage: "http", Detail: "GET /v1/schedule/n1", Start: at(200), Duration: int64(30 * time.Millisecond)},
		{Request: "req-3", Stage: "ingest", Start: at(300), Duration: int64(time.Millisecond)}, // its http span was overwritten
		{Stage: "snapshot-save", Start: at(400), Duration: int64(time.Millisecond)},            // background work
	}
	client := []clientSpan{
		{Request: "req-1", Start: at(-20), Dur: 150 * time.Millisecond},
		{Request: "req-3", Start: at(290), Dur: 20 * time.Millisecond},
		{Request: "req-9", Start: at(500), Dur: 5 * time.Millisecond},
	}
	got := joinSpans(client, server)
	if len(got) != 1 || got[0].client.Request != "req-1" {
		t.Fatalf("joined %+v, want only req-1", got)
	}
	if self := got[0].selfNs(); self != int64(50*time.Millisecond) {
		t.Errorf("req-1 self = %v, want 50ms", time.Duration(self))
	}
	if gap := got[0].gapNs(); gap != int64(50*time.Millisecond) {
		t.Errorf("req-1 client gap = %v, want 50ms", time.Duration(gap))
	}

	all := joinSpans(nil, server)
	if len(all) != 2 || all[0].http.Request != "req-1" || all[1].http.Request != "req-2" {
		t.Fatalf("server-only join = %+v, want req-1 and req-2", all)
	}
	if self := all[1].selfNs(); self != int64(30*time.Millisecond) {
		t.Errorf("req-2 self = %v, want its whole 30ms", time.Duration(self))
	}
}

// TestOpenLoopChargesStallToQueuedRequests stalls the first request for
// 100 ms with one worker: every request due during the stall waits for
// it, and its latency from the due time must include that wait, while
// the generator itself stays on time.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		rate  = 200 // one request due every 5 ms
		n     = 30
		stall = 100 * time.Millisecond
	)
	res := openLoop(rate, n, 1, func(i int, _ time.Time) (int64, error) {
		if i == 0 {
			time.Sleep(stall)
		}
		return 1, nil
	})
	if res.ops != n || res.failed != 0 || res.units != n || len(res.latMs) != n {
		t.Fatalf("ops %d failed %d units %d samples %d, want %d each and no failures", res.ops, res.failed, res.units, len(res.latMs), n)
	}
	// One worker completes requests in due order; request k is due at
	// 5k ms and cannot start before the stall ends at 100 ms.
	for k := 1; k < 20; k++ {
		if floor := float64(100 - 5*k); res.latMs[k] < floor {
			t.Errorf("request %d latency %.1f ms, want >= %.0f ms (stall not charged)", k, res.latMs[k], floor)
		}
	}
	if p50 := median(res.latMs); p50 < 20 {
		t.Errorf("median latency %.1f ms hides the stall", p50)
	}
	for i, lag := range res.lagMs {
		if lag > 50 {
			t.Errorf("generator released request %d %.1f ms late: it blocked behind the stall", i, lag)
		}
	}
}

func TestClosedLoopCountsUnitsAndFailures(t *testing.T) {
	res := closedLoop(20*time.Millisecond, 2, func(w, k int) (int64, error) {
		time.Sleep(time.Millisecond)
		if k == 0 && w == 1 {
			return 0, os.ErrDeadlineExceeded
		}
		return 3, nil
	})
	if res.failed != 1 || res.units != 3*(res.ops-1) || int64(len(res.latMs)) != res.ops-1 {
		t.Fatalf("ops %d failed %d units %d samples %d", res.ops, res.failed, res.units, len(res.latMs))
	}
}

func TestPromScrapeDeltas(t *testing.T) {
	before, err := parseProm(strings.NewReader(`# HELP rushprobe_plan_solves_total Optimizer solves.
# TYPE rushprobe_plan_solves_total counter
rushprobe_plan_solves_total 10
rushprobe_solve_seconds_bucket{le="0.001"} 1
rushprobe_solve_seconds_sum 0.02
rushprobe_solve_seconds_count 10
rushprobe_router_routed_observations{shard="http://a"} 5
rushprobe_router_routed_observations{shard="http://b"} 7
`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(`rushprobe_plan_solves_total 14
rushprobe_solve_seconds_bucket{le="0.001"} 3
rushprobe_solve_seconds_sum 0.06
rushprobe_solve_seconds_count 14
rushprobe_router_routed_observations{shard="http://a"} 25
rushprobe_router_routed_observations{shard="http://b"} 17
`))
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(before, after, "rushprobe_plan_solves_total"); d != 4 {
		t.Errorf("solves delta %g, want 4", d)
	}
	if m := histMean(before, after, "rushprobe_solve_seconds"); m < 0.00999 || m > 0.01001 {
		t.Errorf("solve mean %g, want 0.01", m)
	}
	if got := after.labeled("rushprobe_router_routed_observations"); got["http://a"] != 25 || got["http://b"] != 17 {
		t.Errorf("labeled = %v", got)
	}
	if _, err := parseProm(strings.NewReader("no_value_here\n")); err == nil {
		t.Error("malformed sample parsed")
	}
}

func TestParsePprofTopSumsByPackage(t *testing.T) {
	out := `File: perfbench
Type: cpu
Duration: 3s, Total samples = 2s (66.67%)
Showing nodes accounting for 2s, 100% of 2s total
      flat  flat%   sum%        cum   cum%
     0.80s 40.00% 40.00%      1.20s 60.00%  rushprobe/internal/opt.(*slotCurve).marginal
     0.40s 20.00% 60.00%      0.40s 20.00%  rushprobe/internal/des.(*Sim).Run
     400ms 20.00% 80.00%      0.50s 25.00%  runtime.gcBgMarkWorker
     0.20s 10.00% 90.00%      0.20s 10.00%  rushprobe/internal/opt.zeta
     0.20s 10.00%   100%      0.20s 10.00%  runtime.mallocgc
         0     0%   100%      0.10s  5.00%  runtime.gcAssistAlloc
`
	c, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if c.total != 2 {
		t.Fatalf("total %g s, want 2", c.total)
	}
	near := func(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }
	if got := c.pkg("rushprobe/internal/opt"); !near(got, 0.5) {
		t.Errorf("opt share %g, want 0.5", got)
	}
	if got := c.pkg("rushprobe/internal/des"); !near(got, 0.2) {
		t.Errorf("des share %g, want 0.2", got)
	}
	if !near(c.gc, 0.3) {
		t.Errorf("gc share %g, want 0.3 (worker cum 0.5s + assist cum 0.1s of 2s)", c.gc)
	}
	if _, err := parsePprofTop("no table\n"); err == nil {
		t.Error("output without a table parsed")
	}
}

// TestBenchmarkJSONListsTheHarnessMetrics keeps BENCHMARK.json and the
// metrics the harness prints in step.
func TestBenchmarkJSONListsTheHarnessMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not a harness workload", w.Name)
		}
	}
	check := func(kind string, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness prints %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"rushprobe/internal/des.(*Sim).step":   "rushprobe/internal/des",
		"runtime.mallocgc":                     "runtime",
		"sync.(*Mutex).Lock":                   "sync",
		"rushprobe/internal/opt.zeta.func1":    "rushprobe/internal/opt",
		"net/http.(*conn).serve":               "net/http",
		"rushprobe/internal/fleet.(*Fleet).Do": "rushprobe/internal/fleet",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}
