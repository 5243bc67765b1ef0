package main

import (
	"fmt"
	"strconv"
	"sync"

	"bypassyield/internal/catalog"
	"bypassyield/internal/workload"
)

// Settings every workload shares: release edr, data seed 1, the
// rate-profile policy at column granularity. Shadows, ledger, flight
// recorder and decision shards stay at the daemons' defaults.
const (
	release     = "edr"
	dataSeed    = 1
	policyName  = "rate-profile"
	granularity = "columns"
	// clients is the closed loop's connection count: nproc on the
	// 2-core reference host. serveConn handles one query per
	// connection at a time, so this is the host's honest capacity.
	clients = 2
)

// benchWorkload is one traffic mix over the live federation.
type benchWorkload struct {
	name string
	// sample materializes 1 of every sample logical rows on proxy
	// and nodes alike.
	sample int64
	// cachePct is the proxy cache as a fraction of the release.
	cachePct float64
	// durable turns on persistence: a fresh -state-dir, 1 s
	// snapshots, no per-record fsync.
	durable bool
	// warmup is how many statements run before the timed window; the
	// traced replay re-runs the same prefix and its decision mix must
	// match the live one.
	warmup int
}

var workloads = []benchWorkload{
	{name: "hot-cache", sample: 100000, cachePct: 0.4, warmup: 3000},
	{name: "cache-churn", sample: 1000, cachePct: 0.05, warmup: 1000},
	{name: "durable-hot", sample: 100000, cachePct: 0.4, durable: true, warmup: 3000},
}

func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// proxyArgs are byproxyd's flags for the workload; stateDir is used
// only by durable workloads.
func (w benchWorkload) proxyArgs(addr, nodes, stateDir string) []string {
	args := []string{
		"-release", release, "-seed", strconv.Itoa(dataSeed),
		"-sample", strconv.FormatInt(w.sample, 10),
		"-policy", policyName, "-granularity", granularity,
		"-cache-pct", strconv.FormatFloat(w.cachePct, 'g', -1, 64),
		"-addr", addr, "-nodes", nodes,
	}
	if w.durable {
		args = append(args, "-state-dir", stateDir, "-snapshot-interval", "1s")
	}
	return args
}

// nodeArgs are bydbd's flags for one site.
func (w benchWorkload) nodeArgs(site, addr string) []string {
	return []string{
		"-release", release, "-seed", strconv.Itoa(dataSeed),
		"-sample", strconv.FormatInt(w.sample, 10),
		"-site", site, "-addr", addr,
	}
}

// nodeSites are the sites served by bydbd; the meta site stays local
// to the proxy, as in scripts/bench_synth.sh.
var nodeSites = []string{catalog.SitePhoto, catalog.SiteSpec}

// probeSQL is statement 0 of every run, the query whose answer ends
// set-up. It is the same for every seed, so setup_s does not move with
// the cost of a seed's first statement, and it joins across both node
// sites, so set-up includes the proxy's first leg to each.
const probeSQL = "select p.objid, p.ra, s.z as redshift from specobj s, photoobj p where p.objid = s.objid and p.objid = 1"

// feed is the statement sequence: probeSQL, then the seeded stream,
// materialized on demand so the live run and the traced replay see the
// same statement at each index.
type feed struct {
	mu     sync.Mutex
	stream *workload.Stream
	stmts  []string
}

func newFeed(seed int64) (*feed, error) {
	p := workload.EDRProfile()
	p.Seed = seed
	s, err := workload.NewStream(p)
	if err != nil {
		return nil, err
	}
	return &feed{stream: s, stmts: []string{probeSQL}}, nil
}

// at returns statement i, generating the stream up to it.
func (f *feed) at(i int) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.stmts) <= i {
		f.stmts = append(f.stmts, f.stream.Next().SQL)
	}
	return f.stmts[i]
}
