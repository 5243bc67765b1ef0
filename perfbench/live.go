package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"bypassyield/internal/wire"
)

// daemon is one started byproxyd or bydbd process.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	log    string
	exited chan struct{}
}

func startDaemon(dir, name, bin string, args ...string) (*daemon, error) {
	logPath := filepath.Join(dir, name+".log")
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, log: logPath, exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // a stopped daemon's exit status is not a benchmark result
		lf.Close()
		close(d.exited)
	}()
	return d, nil
}

// running reports an error, with the tail of its log, once the daemon
// has exited.
func (d *daemon) running() error {
	select {
	case <-d.exited:
		out, _ := os.ReadFile(d.log)
		if len(out) > 2000 {
			out = out[len(out)-2000:]
		}
		return fmt.Errorf("%s exited: %s", d.name, bytes.TrimSpace(out))
	default:
		return nil
	}
}

// stop sends SIGTERM, escalates to SIGKILL after a grace period, and
// returns once the process has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-d.exited
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// fed is a running federation: byproxyd plus one bydbd per node site.
type fed struct {
	proxy     *daemon
	nodes     []*daemon
	proxyAddr string
	nodeAddrs []string
}

// freeAddrs picks n free loopback ports below Linux's default
// ephemeral range (32768-60999), so no outgoing connection of this run
// can take a port between the check and the daemon's bind.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for tries := 0; len(addrs) < n; tries++ {
		if tries == 1000 {
			return nil, fmt.Errorf("no free loopback port in [20000, 32000)")
		}
		addr := fmt.Sprintf("127.0.0.1:%d", 20000+rand.Intn(12000))
		if slices.Contains(addrs, addr) {
			continue
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		l.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

func launch(bin, dir string, w benchWorkload, stateDir string) (*fed, error) {
	addrs, err := freeAddrs(1 + len(nodeSites))
	if err != nil {
		return nil, err
	}
	f := &fed{proxyAddr: addrs[0], nodeAddrs: addrs[1:]}
	var pairs []string
	for i, site := range nodeSites {
		d, err := startDaemon(dir, "bydbd-"+site, filepath.Join(bin, "bydbd"), w.nodeArgs(site, f.nodeAddrs[i])...)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.nodes = append(f.nodes, d)
		pairs = append(pairs, site+"="+f.nodeAddrs[i])
	}
	f.proxy, err = startDaemon(dir, "byproxyd", filepath.Join(bin, "byproxyd"),
		w.proxyArgs(f.proxyAddr, strings.Join(pairs, ","), stateDir)...)
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fed) stop() {
	if f.proxy != nil {
		f.proxy.stop()
	}
	for _, d := range f.nodes {
		d.stop()
	}
}

func (f *fed) running() error {
	for _, d := range append([]*daemon{f.proxy}, f.nodes...) {
		if err := d.running(); err != nil {
			return err
		}
	}
	return nil
}

// dialReady polls addr until it accepts a connection and answers a
// ping, failing fast if a daemon exits.
func (f *fed) dialReady(addr string, deadline time.Time) (*wire.Client, error) {
	for {
		c, err := wire.DialTimeout(addr, time.Second)
		if err == nil {
			if _, err = c.Ping(); err == nil {
				return c, nil
			}
			c.Close()
		}
		if rerr := f.running(); rerr != nil {
			return nil, rerr
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not ready: %v", addr, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// firstAnswer waits for the nodes and the proxy, sends sql and
// returns the open proxy connection once the answer is back. Nodes are
// awaited first so the first query's WAN legs find them listening.
func (f *fed) firstAnswer(sql string) (*wire.Client, *wire.ResultMsg, error) {
	deadline := time.Now().Add(60 * time.Second)
	for _, addr := range f.nodeAddrs {
		c, err := f.dialReady(addr, deadline)
		if err != nil {
			return nil, nil, err
		}
		c.Close()
	}
	c, err := f.dialReady(f.proxyAddr, deadline)
	if err != nil {
		return nil, nil, err
	}
	res, err := c.Query(sql)
	if p := replyProblem(res, err); p != "" {
		c.Close()
		return nil, nil, failCheck("first query: %s", p)
	}
	return c, res, nil
}

// failedLat is the latency recorded for a failed query: above every
// limit.
const failedLat = time.Duration(math.MaxInt64)

// loopResult is what a closed loop observed.
type loopResult struct {
	lat      []time.Duration // per attempted query in completion order; failedLat if it failed
	sent     []sent          // completed queries' replies
	problems []string        // failed queries, first few
	failed   int
	bytes    int64 // Σ ResultMsg.Bytes of completed queries
	elapsed  time.Duration
}

func (r *loopResult) attempted() int { return len(r.lat) }

// closedLoop runs one worker per client: each takes the next
// statement index, sends it and waits for the reply before taking
// another, until index stop or the deadline.
func closedLoop(cs []*wire.Client, f *feed, ref *trafficRef, next *atomic.Int64, stop int, start, deadline time.Time) *loopResult {
	parts := make([]loopResult, len(cs))
	var wg sync.WaitGroup
	for k, c := range cs {
		wg.Add(1)
		go func(c *wire.Client, r *loopResult) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= stop {
					return
				}
				sql := f.at(i)
				t0 := time.Now()
				res, err := c.Query(sql)
				lat := time.Since(t0)
				at := time.Since(start)
				var accs []access
				p := replyProblem(res, err)
				if p == "" {
					if accs, err = ref.accesses(res); err != nil {
						p = err.Error()
					}
				}
				var mix decisionMix
				if p == "" {
					for _, d := range res.Decisions {
						mix.count(d.Decision)
					}
				}
				if p != "" {
					r.lat = append(r.lat, failedLat)
					r.failed++
					if len(r.problems) < 5 {
						r.problems = append(r.problems, fmt.Sprintf("statement %d: %s", i, p))
					}
					if err != nil {
						return // the connection is unusable
					}
					continue
				}
				r.lat = append(r.lat, lat)
				r.sent = append(r.sent, sent{idx: i, rows: res.Rows, bytes: res.Bytes, at: at, accs: accs, mix: mix})
				r.bytes += res.Bytes
			}
		}(c, &parts[k])
	}
	wg.Wait()
	out := &loopResult{elapsed: time.Since(start)}
	for _, p := range parts {
		out.lat = append(out.lat, p.lat...)
		out.sent = append(out.sent, p.sent...)
		out.problems = append(out.problems, p.problems...)
		out.failed += p.failed
		out.bytes += p.bytes
	}
	return out
}

// cpuTime returns a process's user+system CPU time from
// /proc/<pid>/stat (clock ticks of 1/100 s).
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSSMiB reads VmHWM from /proc/<pid>/status.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// hostTicks returns the host's steal and total CPU ticks from
// /proc/stat.
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i == 7 {
			steal = v
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
	}
	return steal, total
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuSet is one sample of the daemons' CPU counters and the host's
// steal and total ticks.
type cpuSet struct {
	proxy, nodes time.Duration
	steal, ticks int64
}

func (f *fed) cpu() (cpuSet, error) {
	var c cpuSet
	c.steal, c.ticks = hostTicks()
	var err error
	if c.proxy, err = cpuTime(f.proxy.pid()); err != nil {
		return c, err
	}
	for _, d := range f.nodes {
		t, err := cpuTime(d.pid())
		if err != nil {
			return c, err
		}
		c.nodes += t
	}
	return c, nil
}
