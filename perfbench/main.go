// Command perfbench is the federation benchmark. One run starts a
// fresh loopback federation (byproxyd plus a bydbd for the photo and
// spec sites), replays a seeded statement stream closed-loop over the
// wire protocol from two client connections, checks every output, and
// prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// live window is halved and followed by a traced in-process replay of
// the same statements, and the metrics are the per-layer ones.
// perfbench/run.sh builds the daemons and this program and runs it;
// see perfbench/METRICS.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
	"bypassyield/internal/wire"
)

// setupReps is how many times a run starts the federation; setup_s is
// the median. The last start serves the run.
const setupReps = 21

type config struct {
	w       benchWorkload
	seed    int64
	seconds float64
	trace   bool
	bin     string
	work    string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hot-cache, cache-churn or durable-hot")
	seed := fs.Int64("seed", 1, "statement-stream seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced replay, 0 end-to-end metrics")
	bin := fs.String("bin", "", "directory holding the byproxyd and bydbd binaries")
	work := fs.String("work", "", "directory for daemon logs, state and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*traceFlag != 0 && *traceFlag != 1) {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err == nil && (*seconds <= 0 || *bin == "" || *work == "") {
		err = fmt.Errorf("-seconds must be positive and -bin and -work set")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *traceFlag == 1, bin: *bin, work: *work}
	res, report, err := bench(cfg)
	var ce *checkError
	if errors.As(err, &ce) {
		fmt.Fprintln(stderr, "perfbench:", err)
		json.NewEncoder(stdout).Encode(result{Attempted: max(res.Attempted, 1), Failed: res.Failed, Metrics: map[string]metric{}}) //nolint:errcheck
		return 1
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(report); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// runReport is the line printed before the result: host facts and the
// generator's self-report, so numbers from different hosts or a
// saturated client are not compared blindly.
type runReport struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Clients    int     `json:"clients"`
	WindowS    float64 `json:"window_s"`
	// GeneratorCPUShare is the client process's CPU time over the
	// window as a share of the host's (window × nproc).
	GeneratorCPUShare float64 `json:"generator_cpu_share"`
	// StealShare is the share of host CPU time the hypervisor took
	// over the window (/proc/stat steal): interference from outside.
	StealShare float64 `json:"steal_share"`
	// WANPerDelivered is the paper's objective, (ΔD_S + ΔD_L) ÷ ΔD_A,
	// over the window: traffic beside speed on every run.
	WANPerDelivered  float64   `json:"wan_bytes_per_delivered_byte"`
	LatencySamples   int       `json:"latency_samples"`
	SetupS           []float64 `json:"setup_s"`
	TracedStatements int       `json:"traced_statements,omitempty"`
	// WindowMix compares the traced replay's decisions with the live
	// proxy's over the window statements both ran.
	WindowMix *mixReport `json:"window_mix,omitempty"`
	// SelfUS is each span name's self time per traced statement, in
	// microseconds: where the replayed time goes, layer by layer.
	SelfUS map[string]float64 `json:"self_us,omitempty"`
	Spans  string             `json:"spans,omitempty"`
}

// mixReport holds hit, bypass and load shares of Accesses accesses.
type mixReport struct {
	Accesses int64      `json:"accesses"`
	Replay   [3]float64 `json:"replay_hit_bypass_load"`
	Live     [3]float64 `json:"live_hit_bypass_load"`
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// liveRun is what one live federation run observed.
type liveRun struct {
	setups         []time.Duration
	before, after  wire.StatsResultMsg // around the timed window; before is also the warm-up's end
	first          sent
	warm, window   *loopResult
	cpu0, cpu1     cpuSet // daemon CPU at the window's start and end
	genCPU         time.Duration
	proxyPeakRSSMB float64
	stealShare     float64 // host CPU stolen by the hypervisor over the window
	refWAN         int64   // the LRU-K yardstick's WAN bytes over the window
}

// runLive starts the federation setupReps times, keeps the last one,
// warms it with the first w.warmup statements, then runs the closed
// loop for the window. The warm-up runs on one connection, so the proxy
// decides its statements in stream order, as the traced replay does.
func runLive(cfg config, f *feed, dir string, window time.Duration) (*liveRun, error) {
	lr := &liveRun{}
	var (
		fd    *fed
		admin *wire.Client
	)
	for rep := 0; rep < setupReps; rep++ {
		stateDir := filepath.Join(dir, fmt.Sprintf("state-%d", rep))
		start := time.Now()
		var err error
		if fd, err = launch(cfg.bin, dir, cfg.w, stateDir); err != nil {
			return nil, err
		}
		var res *wire.ResultMsg
		admin, res, err = fd.firstAnswer(f.at(0))
		lr.setups = append(lr.setups, time.Since(start))
		if err != nil {
			fd.stop()
			return nil, err
		}
		lr.first = sent{idx: 0, rows: res.Rows, bytes: res.Bytes}
		if rep < setupReps-1 {
			admin.Close()
			fd.stop()
		}
	}
	defer fd.stop()
	defer admin.Close()

	cs := make([]*wire.Client, clients)
	for i := range cs {
		c, err := wire.DialTimeout(fd.proxyAddr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		defer c.Close()
		cs[i] = c
	}
	ref, err := newTrafficRef(cfg.w)
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	next.Store(1)
	start := time.Now()
	lr.warm = closedLoop(cs[:1], f, ref, &next, cfg.w.warmup, start, start.Add(2*time.Minute))
	if lr.warm.failed > 0 {
		return lr, failCheck("warm-up: %d failed queries: %v", lr.warm.failed, lr.warm.problems)
	}
	if int(next.Load()) < cfg.w.warmup {
		return lr, fmt.Errorf("warm-up ran out of time after %d statements", next.Load())
	}
	next.Store(int64(cfg.w.warmup))
	// Generate the window's statements ahead of time so the client
	// spends the window sending, not generating.
	rate := float64(lr.warm.attempted()) / lr.warm.elapsed.Seconds()
	f.at(cfg.w.warmup + int(rate*clients*window.Seconds()*1.5) + 1000)

	st, err := admin.Stats()
	if err != nil {
		return nil, err
	}
	lr.before = *st
	if lr.cpu0, err = fd.cpu(); err != nil {
		return nil, err
	}
	gen0 := selfCPU()
	start = time.Now()
	lr.window = closedLoop(cs, f, ref, &next, math.MaxInt, start, start.Add(window))
	lr.genCPU = selfCPU() - gen0
	if lr.cpu1, err = fd.cpu(); err != nil {
		return nil, err
	}
	c0, c1 := lr.cpu0, lr.cpu1
	lr.stealShare = ratio(float64(c1.steal-c0.steal), float64(c1.ticks-c0.ticks))
	if st, err = admin.Stats(); err != nil {
		return nil, err
	}
	lr.after = *st
	ref.replay(lr.warm, false)
	ref.replay(lr.window, true)
	lr.refWAN = ref.acct.WANBytes()
	if lr.proxyPeakRSSMB, err = peakRSSMiB(fd.proxy.pid()); err != nil {
		return nil, err
	}
	return lr, fd.running()
}

// bench runs one benchmark and returns its result line and report.
func bench(cfg config) (result, runReport, error) {
	rep := runReport{
		Workload: cfg.w.name, Seed: cfg.seed, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(), Clients: clients,
	}
	var res result
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return res, rep, err
	}
	f, err := newFeed(cfg.seed)
	if err != nil {
		return res, rep, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		window /= 2 // the traced replay takes the other half
	}
	lr, err := runLive(cfg, f, dir, window)
	if lr != nil && lr.window != nil {
		res.Attempted, res.Failed = lr.window.attempted(), lr.window.failed
	}
	if err != nil {
		return res, rep, err
	}
	if err := checkLive(lr, f, cfg.w); err != nil {
		return res, rep, err
	}
	rep.WindowS = lr.window.elapsed.Seconds()
	rep.GeneratorCPUShare = lr.genCPU.Seconds() / (rep.WindowS * float64(rep.NProc))
	rep.StealShare = lr.stealShare
	rep.WANPerDelivered = wanPerDelivered(lr)
	rep.LatencySamples = len(lr.window.lat)
	for _, s := range lr.setups {
		rep.SetupS = append(rep.SetupS, s.Seconds())
	}

	var values map[string]float64
	defs := endToEndMetrics
	if cfg.trace {
		defs = layerMetrics
		rep.Spans = filepath.Join(cfg.work, "spans-"+cfg.w.name+".jsonl")
		tr, err := runTrace(cfg.w, f, window, dir, rep.Spans)
		if err != nil {
			return res, rep, err
		}
		if err := checkWarmMix(acctMix(tr.warm), acctMix(lr.before.Acct)); err != nil {
			return res, rep, err
		}
		replayed, live := windowMix(lr.window.sent, tr.mixes)
		if err := checkWindowMix(replayed, live); err != nil {
			return res, rep, err
		}
		rep.WindowMix = &mixReport{Accesses: live.accesses, Replay: replayed.shares(), Live: live.shares()}
		rep.TracedStatements = tr.queries
		rep.SelfUS = tr.selfUS
		res.Attempted += tr.queries
		values = tr.values
		for k, v := range liveLayerValues(lr) {
			values[k] = v
		}
	} else {
		values = endToEndValues(lr)
	}
	if res.Metrics, err = emit(defs, values); err != nil {
		return res, rep, err
	}
	res.Correct = true
	return res, rep, os.RemoveAll(dir)
}

// checkLive runs the output checks on a live run.
func checkLive(lr *liveRun, f *feed, w benchWorkload) error {
	if lr.window.failed > 0 {
		return failCheck("%d of %d queries failed: %v", lr.window.failed, lr.window.attempted(), lr.window.problems)
	}
	if len(lr.window.sent) == 0 {
		return failCheck("no query completed in the window")
	}
	if err := checkDelivered(lr.window.bytes, lr.before.Acct, lr.after.Acct); err != nil {
		return err
	}
	for _, st := range []*wire.StatsResultMsg{&lr.before, &lr.after} {
		if err := checkShards(st); err != nil {
			return err
		}
	}
	db, err := engine.Open(catalog.EDR(), engine.Config{SampleEvery: w.sample, Seed: dataSeed})
	if err != nil {
		return err
	}
	all := append(append([]sent{lr.first}, lr.warm.sent...), lr.window.sent...)
	return checkResults(all, f, db)
}

// endToEndValues derives the end-to-end metrics from a live run. Every
// figure covers the whole window.
func endToEndValues(lr *liveRun) map[string]float64 {
	win := lr.window
	lat := append([]time.Duration(nil), win.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	done := float64(len(win.sent))
	cpu := (lr.cpu1.proxy - lr.cpu0.proxy) + (lr.cpu1.nodes - lr.cpu0.nodes)
	return map[string]float64{
		"throughput_qps":          done / win.elapsed.Seconds(),
		"latency_p50_us":          percentile(lat, 0.50),
		"latency_p99_us":          percentile(lat, 0.99),
		"success_rate":            done / float64(win.attempted()),
		"server_cpu_us_per_query": ratio(float64(cpu.Microseconds()), done),
		"wan_bytes_vs_lruk":       ratio(float64(windowWAN(lr)), float64(lr.refWAN)),
		"proxy_peak_rss_mb":       lr.proxyPeakRSSMB,
		"setup_s":                 median(lr.setups),
	}
}

// windowWAN is the proxy's WAN bytes (ΔD_S + ΔD_L) over the window.
func windowWAN(lr *liveRun) int64 {
	b, a := lr.before.Acct, lr.after.Acct
	return (a.BypassBytes - b.BypassBytes) + (a.FetchBytes - b.FetchBytes)
}

// wanPerDelivered is the paper's objective over the window:
// (ΔD_S + ΔD_L) ÷ ΔD_A.
func wanPerDelivered(lr *liveRun) float64 {
	return ratio(float64(windowWAN(lr)), float64(lr.after.Acct.DeliveredBytes()-lr.before.Acct.DeliveredBytes()))
}

// liveLayerValues are the per-layer metrics read from the live run.
func liveLayerValues(lr *liveRun) map[string]float64 {
	b, a := lr.before, lr.after
	q := float64(a.Queries - b.Queries)
	c0, c1 := lr.cpu0, lr.cpu1
	return map[string]float64{
		"core.wan_bytes_per_delivered_byte": wanPerDelivered(lr),
		"core.hit_ratio":                    ratio(float64(a.Acct.Hits-b.Acct.Hits), float64(a.Acct.Accesses-b.Acct.Accesses)),
		"core.bypasses_per_query":           ratio(float64(a.Acct.Bypasses-b.Acct.Bypasses), q),
		"core.loads_per_query":              ratio(float64(a.Acct.Loads-b.Acct.Loads), q),
		"wire.node_bytes_per_query":         ratio(float64((a.TransportTx+a.TransportRx)-(b.TransportTx+b.TransportRx)), q),
		"wire.proxy_cpu_us_per_query":       ratio(float64((c1.proxy - c0.proxy).Microseconds()), q),
		"wire.node_cpu_us_per_query":        ratio(float64((c1.nodes - c0.nodes).Microseconds()), q),
	}
}
