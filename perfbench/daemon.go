package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running rushprobed process.
type daemon struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

var (
	procMu  sync.Mutex
	running = map[*daemon]bool{}
)

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon starts rushprobed with args plus a fresh loopback -addr,
// logging to <work>/<name>.log. It dies with the harness.
func startDaemon(cfg config, name string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(cfg.work, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(cfg.bin, "rushprobed"),
		append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d := &daemon{name: name, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	procMu.Lock()
	defer procMu.Unlock()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	running[d] = true
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// stop kills the daemon and waits for it to exit.
func (d *daemon) stop() {
	procMu.Lock()
	delete(running, d)
	procMu.Unlock()
	d.cmd.Process.Kill()
	<-d.done
	d.log.Close()
}

// exited reports whether the process has ended, with its log tail.
func (d *daemon) exited() error {
	select {
	case <-d.done:
		b, _ := os.ReadFile(d.log.Name())
		if len(b) > 2000 {
			b = b[len(b)-2000:]
		}
		return fmt.Errorf("%s exited: %s", d.name, bytes.TrimSpace(b))
	default:
		return nil
	}
}

// stopAll stops every daemon still running.
func stopAll() {
	procMu.Lock()
	ds := make([]*daemon, 0, len(running))
	for d := range running {
		ds = append(ds, d)
	}
	procMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// peakRSSMB is the daemon's VmHWM in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// cpuSeconds is the CPU time (user + system) the daemon has used.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", d.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", d.cmd.Process.Pid)
	}
	return (utime + stime) / clockTicks, nil
}

// cpuOf sums the daemons' CPU seconds.
func cpuOf(ds ...*daemon) (float64, error) {
	total := 0.0
	for _, d := range ds {
		s, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

func vmHWM(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in " + statusPath)
}

// client is the harness's HTTP client: keep-alive connections, at most
// one idle per worker.
var client = &http.Client{
	Timeout:   30 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
}

// waitHealthy polls url+/v1/healthz until it answers 200 with status
// "ok", failing fast if any of the watched daemons exits.
func waitHealthy(url string, budget time.Duration, watch ...*daemon) error {
	deadline := time.Now().Add(budget)
	for {
		var h struct {
			Status string `json:"status"`
		}
		if _, err := getJSON(url+"/v1/healthz", &h); err == nil && h.Status == "ok" {
			return nil
		}
		for _, d := range watch {
			if err := d.exited(); err != nil {
				return err
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v", url, budget)
		}
		time.Sleep(time.Millisecond)
	}
}

// httpError is a non-2xx answer.
type httpError struct {
	status int
	body   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// do sends one request and decodes a JSON answer into v (when non-nil),
// returning the X-Request-ID the server assigned.
func do(method, url string, body []byte, v any) (string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	id := resp.Header.Get("X-Request-ID")
	if resp.StatusCode/100 != 2 {
		return id, &httpError{resp.StatusCode, strings.TrimSpace(string(b))}
	}
	if v != nil {
		if err := json.Unmarshal(b, v); err != nil {
			return id, fmt.Errorf("decode %s %s: %w", method, url, err)
		}
	}
	return id, nil
}

// retries is how many times a shed (429) or failed request is retried
// before it counts as failed.
const retries = 3

// doRetry is do with retries on transport errors, 429 and 5xx.
func doRetry(method, url string, body []byte, v any) (string, error) {
	var (
		id  string
		err error
	)
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 50 * time.Millisecond)
		}
		id, err = do(method, url, body, v)
		var he *httpError
		if err == nil || (errors.As(err, &he) && he.status != http.StatusTooManyRequests && he.status < 500) {
			return id, err
		}
	}
	return id, err
}

func getJSON(url string, v any) (string, error) { return do(http.MethodGet, url, nil, v) }

// scrape is one /metrics exposition: "name{labels}" → value.
type scrape map[string]float64

// scrapeMetrics reads a daemon's /metrics into "name{labels}" → value.
func scrapeMetrics(url string) (scrape, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: HTTP %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm parses the Prometheus text exposition's samples.
func parseProm(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed sample %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// family sums every sample of the named family (all label sets).
func (s scrape) family(name string) float64 {
	total := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// labeled returns the family's samples by the value of its one label.
func (s scrape) labeled(name string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range s {
		if rest, ok := strings.CutPrefix(k, name+"{"); ok {
			if _, val, ok := strings.Cut(strings.TrimSuffix(rest, "}"), "="); ok {
				out[strings.Trim(val, `"`)] = v
			}
		}
	}
	return out
}

// delta is after minus before for a family.
func delta(before, after scrape, name string) float64 {
	return after.family(name) - before.family(name)
}

// histMean is the mean of a histogram's observations between two
// scrapes, in the histogram's unit (0 with none).
func histMean(before, after scrape, name string) float64 {
	n := delta(before, after, name+"_count")
	if n == 0 {
		return 0
	}
	return delta(before, after, name+"_sum") / n
}

// fetchTraces reads the last n spans of a daemon's trace ring.
func fetchTraces(url string, n int) ([]serverSpan, error) {
	var tr struct {
		Spans []serverSpan `json:"spans"`
	}
	_, err := getJSON(fmt.Sprintf("%s/debug/traces?n=%d", url, n), &tr)
	return tr.Spans, err
}

// sum adds up several daemons' scrapes, sample by sample.
func sum(ss ...scrape) scrape {
	out := scrape{}
	for _, s := range ss {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}

// cpuWindows runs a closed-loop phase while sampling the daemons' CPU
// time every rateWindow, and returns the phase's result with, per whole
// window, the units completed per CPU-second the daemons spent in it.
// Their median moves only when most windows do.
func cpuWindows(ds []*daemon, phase func() loopResult) (loopResult, []float64, error) {
	c0, err := cpuOf(ds...)
	if err != nil {
		return loopResult{}, nil, err
	}
	cpu := []float64{c0}
	var sampleErr error
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(rateWindow)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				c, err := cpuOf(ds...)
				if err != nil {
					sampleErr = err
					return
				}
				cpu = append(cpu, c)
			}
		}
	}()
	res := phase()
	close(stop)
	<-stopped
	if sampleErr != nil {
		return res, nil, sampleErr
	}
	units := make([]int64, len(cpu)-1)
	for _, c := range res.done {
		if w := int(c.at / rateWindow); w < len(units) {
			units[w] += c.units
		}
	}
	var rates []float64
	for w, u := range units {
		if spent := cpu[w+1] - cpu[w]; spent > 0 {
			rates = append(rates, float64(u)/spent)
		}
	}
	return res, rates, nil
}
