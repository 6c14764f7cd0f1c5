package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail read from fewer is one or two unlucky requests, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether at least minBeyond samples lie beyond it. xs need not be
// sorted; it is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// windowedPercentile splits samples, in the order they completed, into
// as many consecutive windows as keep minBeyond samples beyond the
// p-quantile of each, and returns the median of the windows'
// quantiles, and whether even one window had enough samples. A
// disturbance confined to one window moves it no further than the
// next window's value.
func windowedPercentile(xs []float64, p float64) (float64, bool) {
	perWindow := int(math.Ceil(minBeyond / (1 - p)))
	k := len(xs) / perWindow
	if k <= 1 {
		return percentile(xs, p)
	}
	size := len(xs) / k
	tails := make([]float64, k)
	for w := range tails {
		tails[w], _ = percentile(xs[w*size:(w+1)*size], p)
	}
	return median(tails), true
}

// median is the nearest-rank 0.5-quantile; it needs no samples beyond.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// interval is a span's extent in nanoseconds since some common origin.
type interval struct {
	start, end int64
}

// selfTime is the parent's duration minus the part of it its children
// cover. Children are clipped to the parent and overlaps between them
// count once.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	cur := interval{start: math.MinInt64, end: math.MinInt64}
	for _, c := range cs {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	covered += cur.end - cur.start
	return (parent.end - parent.start) - covered
}

// serverSpan is one span from a daemon's /debug/traces.
type serverSpan struct {
	Request  string    `json:"request"`
	Stage    string    `json:"stage"`
	Detail   string    `json:"detail"`
	Start    time.Time `json:"start"`
	Duration int64     `json:"durationNs"`
}

func (s serverSpan) interval() interval {
	t := s.Start.UnixNano()
	return interval{t, t + s.Duration}
}

// clientSpan is the harness's record of one request it sent, keyed by
// the X-Request-ID the server answered with.
type clientSpan struct {
	Request string
	Start   time.Time
	Dur     time.Duration
}

// joined is one request seen from both sides: the harness's span, the
// server's http span, and the server's stage spans under it.
type joined struct {
	client   clientSpan
	http     serverSpan
	children []serverSpan
}

// selfNs is the server http span's time outside its stage spans: the
// daemon's own HTTP, JSON and handler work.
func (j joined) selfNs() int64 {
	cs := make([]interval, len(j.children))
	for i, c := range j.children {
		cs[i] = c.interval()
	}
	return selfTime(j.http.interval(), cs)
}

// gapNs is the harness's span minus the server's http span: the
// client, the kernel and the wire.
func (j joined) gapNs() int64 { return int64(j.client.Dur) - j.http.Duration }

// joinSpans pairs client spans with the server spans carrying the same
// request ID. Client spans whose request has no server http span (the
// trace ring overwrote it) are dropped; with no client spans, every
// server request with an http span is returned.
func joinSpans(client []clientSpan, server []serverSpan) []joined {
	byReq := map[string]*joined{}
	for _, s := range server {
		if s.Request == "" {
			continue
		}
		j := byReq[s.Request]
		if j == nil {
			j = &joined{}
			byReq[s.Request] = j
		}
		if s.Stage == "http" {
			j.http = s
		} else {
			j.children = append(j.children, s)
		}
	}
	var out []joined
	if client == nil {
		for _, req := range sortedKeys(byReq) {
			if j := byReq[req]; j.http.Stage == "http" {
				out = append(out, *j)
			}
		}
		return out
	}
	for _, c := range client {
		j := byReq[c.Request]
		if j == nil || j.http.Stage != "http" {
			continue
		}
		j.client = c
		out = append(out, *j)
	}
	return out
}

// loopResult is what a load phase measured.
type loopResult struct {
	latMs   []float64 // successful operations, ms from their due time
	lagMs   []float64 // open loop only: how late the generator released each operation
	units   int64     // work units the successful operations completed
	ops     int64
	failed  int64
	elapsed time.Duration
	done    []completion // closed loop only
}

// completion is when, into its phase, an operation finished, and the
// units it completed.
type completion struct {
	at    time.Duration
	units int64
}

// windowRates are a closed-loop phase's throughputs, in units per
// second, over consecutive windows of the given width; a trailing
// partial window is dropped. Their median moves only when most windows
// do, so one stall shifts it less than the phase's mean rate.
func (r loopResult) windowRates(width time.Duration) []float64 {
	n := int(r.elapsed / width)
	units := make([]int64, n)
	for _, c := range r.done {
		if w := int(c.at / width); w < n {
			units[w] += c.units
		}
	}
	rates := make([]float64, n)
	for w, u := range units {
		rates[w] = float64(u) / width.Seconds()
	}
	return rates
}

// openLoop releases n operations at a fixed rate to at most workers
// concurrent callers. Each latency runs from the operation's due time,
// not its send time, so a stall is charged to every operation queued
// behind it; lagMs records how late the generator itself released each
// one, which must stay small for the latencies to mean anything.
func openLoop(rate float64, n, workers int, op func(i int, due time.Time) (int64, error)) loopResult {
	type job struct {
		i   int
		due time.Time
	}
	// Sized to n so the generator never blocks behind busy workers:
	// queueing shows in the latencies, not as generator lag.
	jobs := make(chan job, n)
	res := loopResult{lagMs: make([]float64, n)}
	start := time.Now()
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		defer close(jobs)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			res.lagMs[i] = ms(time.Since(due))
			jobs <- job{i, due}
		}
	}()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				units, err := op(j.i, j.due)
				lat := ms(time.Since(j.due))
				mu.Lock()
				res.ops++
				if err != nil {
					res.failed++
				} else {
					res.units += units
					res.latMs = append(res.latMs, lat)
				}
				mu.Unlock()
			}
		}()
	}
	gen.Wait()
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// closedLoop runs workers callers back to back for dur; op(w, k) is
// worker w's k-th operation. Latencies run from each send.
func closedLoop(dur time.Duration, workers int, op func(w, k int) (int64, error)) loopResult {
	var res loopResult
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				t0 := time.Now()
				units, err := op(w, k)
				lat := ms(time.Since(t0))
				mu.Lock()
				res.ops++
				if err != nil {
					res.failed++
				} else {
					res.units += units
					res.latMs = append(res.latMs, lat)
					res.done = append(res.done, completion{time.Since(start), units})
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
