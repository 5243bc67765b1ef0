package main

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/persist"
	"bypassyield/internal/sqlparse"
	"bypassyield/internal/wire"
)

// The traced run replays the live run's statements in-process. For
// each statement it calls the layers' public functions in the order
// Proxy.handleQuery does, with a span around every call:
//
//	query                   the served path
//	  sqlparse.parse        sqlparse.Parse
//	  federation.mediate    Mediator.QueryStmt
//	    engine.bind         ┐ re-timed standalone after the served
//	    engine.execute      │ path: QueryStmt runs them internally, so
//	    federation.decompose┘ mediate's self time is the decide phase
//	  obs.flight_capture    flightrec Begin → Decision per access → Finish
//	  wire.plan_legs        result assembly, Bind + Subqueries for bypassed tables
//	  wire.node_subquery    wire.Client.Query to an in-process DBNode, per leg
//	  wire.node_fetch       WriteFrame(MsgFetch) / ReadFrame, per leg
//	  wire.result_encode    WriteFrame(MsgResult)
//	  wire.result_decode    ReadFrame + Decode
//
// WAN legs run one after another here (the proxy overlaps a query's
// legs), so their spans do not overlap. Outside the served path, the
// same access stream feeds standalone policy, shadow, telemetry and
// ledger instances, one batch span per component and statement, and
// every snapEvery statements Mediator.SnapshotState is timed. Odd
// statements of the window run with tracing off; comparing their
// served-path time with the traced ones gives the trace's overhead.

const (
	// snapEvery is how many window statements pass between timed
	// Mediator.SnapshotState barriers.
	snapEvery = 500
	// allocStatements bounds the statements of the allocation passes.
	allocStatements = 2000
	// maxTraced bounds the traced window's statements (span memory).
	maxTraced = 100000
)

// siteConn is the replay's pair of connections to one in-process
// node: a client for sub-queries and a raw conn for fetch frames.
type siteConn struct {
	client *wire.Client
	fetch  net.Conn
}

// allHealthy reports every site available, as the live proxy's
// closed breakers do; the mediator still pays the health lookup.
type allHealthy struct{}

func (allHealthy) SiteAvailable(string) (bool, string) { return true, "" }

// timedJournal times every WAL append the mediator makes under its
// decision lock.
type timedJournal struct {
	j      federation.Journal
	ns, n  int64
	active bool
}

func (t *timedJournal) JournalAccess(rec federation.JournalRecord) {
	start := time.Now()
	t.j.JournalAccess(rec)
	if t.active {
		t.ns += int64(time.Since(start))
		t.n++
	}
}

// coreMirror replays each statement's accesses through standalone
// decision-plane components, laid out like the mediator's partitions.
type coreMirror struct {
	pols    []core.Policy
	shadows []*core.ShadowSet
	clk     []int64
	tel     *core.Telemetry
	led     *ledger.Ledger
	g       int64

	objs   []core.Object
	yields []int64
	shard  []int
	dec    []core.Decision
}

func newCoreMirror(shards int, capacity int64) (*coreMirror, error) {
	m := &coreMirror{
		clk: make([]int64, shards),
		tel: core.NewTelemetry(obs.NewRegistry()),
		led: ledger.New(4096),
	}
	caps := make([]int64, shards)
	for i := range caps {
		caps[i] = capacity / int64(shards)
		if int64(i) < capacity%int64(shards) {
			caps[i]++
		}
	}
	for i := 0; i < shards; i++ {
		p, err := core.NewPolicyByName(policyName, caps[i], dataSeed+int64(i))
		if err != nil {
			return nil, err
		}
		if ts, ok := p.(core.TelemetrySetter); ok {
			ts.SetTelemetry(m.tel)
		}
		s := core.NewShadowSet(p.Capacity())
		s.SetTelemetry(m.tel)
		m.pols = append(m.pols, p)
		m.shadows = append(m.shadows, s)
	}
	return m, nil
}

// feed runs one statement's accesses through each component in turn,
// recording one span per component.
func (m *coreMirror) feed(q int32, objects map[core.ObjectID]core.Object, decs []federation.AccessDecision, tr *tracer) {
	m.g++
	m.objs, m.yields, m.shard, m.dec = m.objs[:0], m.yields[:0], m.shard[:0], m.dec[:0]
	touched := make([]bool, len(m.pols))
	for _, d := range decs {
		obj := objects[d.Object]
		sh := federation.ShardOf(obj.ID, len(m.pols))
		if !touched[sh] {
			touched[sh] = true
			m.clk[sh]++
		}
		m.objs = append(m.objs, obj)
		m.yields = append(m.yields, d.Yield)
		m.shard = append(m.shard, sh)
		m.dec = append(m.dec, core.Bypass)
	}
	s0 := tr.now()
	for k, obj := range m.objs {
		m.dec[k] = m.pols[m.shard[k]].Access(m.clk[m.shard[k]], obj, m.yields[k])
	}
	s1 := tr.now()
	for k, obj := range m.objs {
		m.shadows[m.shard[k]].Access(m.clk[m.shard[k]], obj, m.yields[k], m.dec[k])
	}
	s2 := tr.now()
	for k, obj := range m.objs {
		m.tel.RecordAccess(policyName, obj, m.yields[k], m.dec[k])
	}
	s3 := tr.now()
	for k, obj := range m.objs {
		m.led.Record(core.DecisionRecordFor(m.g, m.pols[m.shard[k]], "", obj, m.yields[k], m.dec[k]))
	}
	s4 := tr.now()
	tr.record("core.policy_access", q, 0, s0, s1)
	tr.record("core.shadow_access", q, 0, s1, s2)
	tr.record("core.telemetry_record", q, 0, s2, s3)
	tr.record("obs.ledger_record", q, 0, s3, s4)
}

// replayer is the in-process pipeline: a mediator built as byproxyd
// builds it, in-process nodes for the node sites, and the standalone
// components the replay times beside it.
type replayer struct {
	schema  *catalog.Schema
	gran    federation.Granularity
	med     *federation.Mediator
	reg     *obs.Registry
	mgr     *persist.Manager
	journal *timedJournal
	probe   *engine.DB // standalone engine for the bind/execute probes and the result check
	probeRg *obs.Registry
	nodes   []*wire.DBNode
	sites   map[string]*siteConn
	flight  *flightrec.Recorder
	mirror  *coreMirror
	buf     bytes.Buffer

	counts replayCounts
	// mixes holds each window statement's access decisions, by index.
	mixes map[int]decisionMix
}

// replayCounts are the window's per-statement tallies.
type replayCounts struct {
	queries, traced      int
	accesses, tracedAccs int64
	subLegs, fetchLegs   int64
	frameBytes           int64
	servedOn, servedOff  int64 // ns on the served path, traced and untraced statements
	untraced             int
}

func newReplayer(w benchWorkload, dir string) (*replayer, error) {
	s := catalog.EDR()
	gran, err := federation.ParseGranularity(granularity)
	if err != nil {
		return nil, err
	}
	ecfg := engine.Config{SampleEvery: w.sample, Seed: dataSeed}
	db, err := engine.Open(s, ecfg)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	db.SetObs(reg)
	capacity := int64(w.cachePct * float64(s.TotalBytes()))
	med, err := federation.New(federation.Config{
		Schema: s, Engine: db, Granularity: gran, Obs: reg,
		Ledger: ledger.New(4096), Shadows: true,
		NewPolicy: func(shard int, shardCap int64) (core.Policy, error) {
			return core.NewPolicyByName(policyName, shardCap, dataSeed+int64(shard))
		},
		Capacity: capacity,
	})
	if err != nil {
		return nil, err
	}
	med.SetHealth(allHealthy{})
	r := &replayer{
		schema: s, gran: gran, med: med, reg: reg,
		sites:  map[string]*siteConn{},
		flight: flightrec.New(flightrec.DefaultConfig(), reg),
	}
	if r.mirror, err = newCoreMirror(med.ShardCount(), capacity); err != nil {
		return nil, err
	}
	if r.probe, err = engine.Open(s, ecfg); err != nil {
		return nil, err
	}
	r.probeRg = obs.NewRegistry()
	r.probe.SetObs(r.probeRg)
	for _, site := range nodeSites {
		ndb, err := engine.Open(catalog.SiteSchema(s, site), ecfg)
		if err != nil {
			r.close()
			return nil, err
		}
		node := wire.NewDBNode(site, ndb)
		node.SetLogf(func(string, ...any) {})
		addr, err := node.Listen("127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes = append(r.nodes, node)
		sc := &siteConn{}
		r.sites[site] = sc
		if sc.client, err = wire.Dial(addr); err != nil {
			r.close()
			return nil, err
		}
		if sc.fetch, err = net.Dial("tcp", addr); err != nil {
			r.close()
			return nil, err
		}
	}
	if w.durable {
		r.mgr, err = persist.Open(persist.Config{
			Dir: filepath.Join(dir, "trace-state"), SnapshotInterval: time.Second, Obs: reg,
		}, med)
		if err != nil {
			r.close()
			return nil, err
		}
		r.journal = &timedJournal{j: r.mgr}
		med.SetJournal(r.journal)
	}
	return r, nil
}

// close stops persistence and the in-process nodes.
func (r *replayer) close() error {
	var err error
	if r.mgr != nil {
		err = r.mgr.Close()
		r.mgr = nil
	}
	for _, sc := range r.sites {
		if sc.client != nil {
			sc.client.Close()
		}
		if sc.fetch != nil {
			sc.fetch.Close()
		}
	}
	for _, n := range r.nodes {
		n.Close()
	}
	r.sites, r.nodes = nil, nil
	return err
}

// leg is one WAN exchange a statement's decisions call for.
type leg struct {
	site, object, sql string
}

// tableOfObject extracts the table from an object id
// ("release/table[.column]").
func tableOfObject(object string) string {
	_, rest, _ := strings.Cut(object, "/")
	table, _, _ := strings.Cut(rest, ".")
	return table
}

// plan assembles the result frame and the WAN legs the way
// Proxy.handleQuery does: a fetch per load, a sub-query per table
// with a bypassed object. Sites without a node (meta) send nothing.
func (r *replayer) plan(stmt *sqlparse.SelectStmt, rep *federation.QueryReport) (*wire.ResultMsg, []leg, error) {
	res := &wire.ResultMsg{
		Columns: rep.Result.Columns,
		Rows:    rep.Result.Rows,
		Bytes:   rep.Result.Bytes,
		Tuples:  rep.Result.Tuples,
		Partial: rep.Degraded,
	}
	var legs []leg
	bypassed := map[string]bool{}
	for _, d := range rep.Decisions {
		res.Decisions = append(res.Decisions, wire.DecisionMsg{
			Object: string(d.Object), Site: d.Site, Yield: d.Yield,
			Decision: d.Decision.String(), Forced: d.Forced, Failed: d.Failed, Reason: d.Reason,
		})
		if d.Forced || d.Failed {
			continue
		}
		switch d.Decision {
		case core.Bypass:
			bypassed[tableOfObject(string(d.Object))] = true
		case core.Load:
			if r.sites[d.Site] != nil {
				legs = append(legs, leg{site: d.Site, object: string(d.Object)})
			}
		}
	}
	if len(bypassed) > 0 {
		bound, err := engine.Bind(r.schema, stmt)
		if err != nil {
			return nil, nil, err
		}
		for i, sub := range federation.Subqueries(bound) {
			t := bound.Tables[i]
			if bypassed[t.Name] && r.sites[t.Site] != nil {
				legs = append(legs, leg{site: t.Site, sql: sub.String()})
			}
		}
	}
	return res, legs, nil
}

// runLeg performs one node exchange and checks the reply type.
func (r *replayer) runLeg(l leg) error {
	sc := r.sites[l.site]
	if l.sql != "" {
		res, err := sc.client.Query(l.sql)
		if p := replyProblem(res, err); p != "" {
			return fmt.Errorf("sub-query to %s: %s", l.site, p)
		}
		return nil
	}
	if _, err := wire.WriteFrame(sc.fetch, wire.MsgFetch, wire.FetchMsg{Object: l.object}); err != nil {
		return err
	}
	t, _, _, err := wire.ReadFrame(sc.fetch)
	if err != nil {
		return err
	}
	if t != wire.MsgFetchAck {
		return fmt.Errorf("fetch %s from %s: got %s", l.object, l.site, t)
	}
	return nil
}

// step replays statement q. tr is nil for an untraced statement.
func (r *replayer) step(q int32, sql string, tr *tracer) error {
	start := time.Now()
	root := tr.start(rootSpan, q, 0)

	sp := tr.start("sqlparse.parse", q, root)
	stmt, err := sqlparse.Parse(sql)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("statement %d: %w", q, err)
	}

	med := tr.start("federation.mediate", q, root)
	rep, err := r.med.QueryStmt(sql, stmt)
	tr.end(med)
	if err != nil {
		return fmt.Errorf("statement %d: %w", q, err)
	}

	sp = tr.start("obs.flight_capture", q, root)
	fc := r.flight.Begin()
	fc.SetQuery(sql, 0)
	fc.SetMediation(rep.ExecUS, rep.LockWaitUS, rep.DecideUS)
	for _, d := range rep.Decisions {
		fc.Decision(string(d.Object), d.Site, d.Decision.String(), d.Reason, d.Yield)
	}
	r.flight.Finish(fc, nil)
	tr.end(sp)

	sp = tr.start("wire.plan_legs", q, root)
	res, legs, err := r.plan(stmt, rep)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("statement %d: %w", q, err)
	}
	for _, l := range legs {
		name := "wire.node_subquery"
		if l.object != "" {
			name = "wire.node_fetch"
		}
		sp = tr.start(name, q, root)
		err = r.runLeg(l)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("statement %d: %w", q, err)
		}
	}

	sp = tr.start("wire.result_encode", q, root)
	r.buf.Reset()
	n, err := wire.WriteFrame(&r.buf, wire.MsgResult, res)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("statement %d: encode: %w", q, err)
	}
	sp = tr.start("wire.result_decode", q, root)
	var got wire.ResultMsg
	t, body, _, err := wire.ReadFrame(&r.buf)
	if err == nil {
		err = wire.Decode(body, &got)
	}
	tr.end(sp)
	tr.end(root)
	served := int64(time.Since(start))
	if err != nil || t != wire.MsgResult {
		return fmt.Errorf("statement %d: decode %s: %v", q, t, err)
	}
	if p := replyProblem(&got, nil); p != "" || got.Rows != rep.Result.Rows || got.Bytes != rep.Result.Bytes {
		return failCheck("statement %d: replayed reply %q rows=%d bytes=%d, mediator rows=%d bytes=%d",
			q, p, got.Rows, got.Bytes, rep.Result.Rows, rep.Result.Bytes)
	}

	if err := r.probeEngine(q, med, stmt, rep, tr); err != nil {
		return err
	}
	r.mirror.feed(q, r.med.Objects(), rep.Decisions, tr)
	var mix decisionMix
	for _, d := range rep.Decisions {
		mix.count(d.Decision.String())
	}
	if r.mixes != nil {
		r.mixes[int(q)] = mix
	}

	c := &r.counts
	c.queries++
	c.accesses += int64(len(rep.Decisions))
	c.frameBytes += int64(n)
	for _, l := range legs {
		if l.object != "" {
			c.fetchLegs++
		} else {
			c.subLegs++
		}
	}
	if tr != nil {
		c.traced++
		c.tracedAccs += int64(len(rep.Decisions))
		c.servedOn += served
	} else {
		c.untraced++
		c.servedOff += served
	}
	return nil
}

// probeEngine re-times the bind, execute and decompose calls that
// QueryStmt made internally, as children of the mediate span, and
// checks the statement's rows and bytes against the standalone engine.
func (r *replayer) probeEngine(q, parent int32, stmt *sqlparse.SelectStmt, rep *federation.QueryReport, tr *tracer) error {
	sp := tr.start("engine.bind", q, parent)
	b, err := engine.Bind(r.schema, stmt)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.start("engine.execute", q, parent)
	res, err := r.probe.Execute(stmt)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.start("federation.decompose", q, parent)
	accs := federation.Decompose(b, r.schema.Name, res.Bytes, r.gran)
	tr.end(sp)
	if res.Rows != rep.Result.Rows || res.Bytes != rep.Result.Bytes || len(accs) != len(rep.Decisions) {
		return failCheck("statement %d: mediator rows=%d bytes=%d accesses=%d, engine rows=%d bytes=%d accesses=%d",
			q, rep.Result.Rows, rep.Result.Bytes, len(rep.Decisions), res.Rows, res.Bytes, len(accs))
	}
	return nil
}

// traceRun is what the traced replay measured.
type traceRun struct {
	warm    core.Accounting     // mediator accounting after the warm-up prefix
	mixes   map[int]decisionMix // per window statement, by index
	values  map[string]float64
	selfUS  map[string]float64 // per span name, self time per traced statement
	queries int
}

// runTrace replays the warm-up prefix untimed, then the window's
// statements for up to budget, alternating traced and untraced.
func runTrace(w benchWorkload, f *feed, budget time.Duration, dir, spansPath string) (*traceRun, error) {
	r, err := newReplayer(w, dir)
	if err != nil {
		return nil, err
	}
	defer r.close()
	for i := 0; i < w.warmup; i++ {
		if err := r.step(int32(i), f.at(i), nil); err != nil {
			return nil, err
		}
	}
	out := &traceRun{warm: r.med.Accounting()}
	r.counts = replayCounts{}
	r.mixes = map[int]decisionMix{}
	if r.journal != nil {
		r.journal.active = true
	}
	walBytes := r.reg.Counter("persist.wal_bytes")
	rowsScanned := r.probeRg.Counter("engine.rows_scanned")
	wal0, rows0 := walBytes.Value(), rowsScanned.Value()

	tr := newTracer()
	deadline := time.Now().Add(budget)
	end := w.warmup
	for k := 0; k < maxTraced && time.Now().Before(deadline); k++ {
		i := w.warmup + k
		sql := f.at(i)
		stepTr := tr
		if k%2 == 1 {
			stepTr = nil
		}
		if err := r.step(int32(i), sql, stepTr); err != nil {
			return nil, err
		}
		end = i + 1
		if (k+1)%snapEvery == 0 {
			s0 := tr.now()
			if _, err := r.med.SnapshotState(nil); err != nil {
				return nil, err
			}
			tr.record("persist.snapshot_barrier", int32(i), 0, s0, tr.now())
		}
	}
	if r.journal != nil {
		r.journal.active = false
	}
	c := r.counts
	walDelta := walBytes.Value() - wal0
	rowsDelta := rowsScanned.Value() - rows0
	if err := r.close(); err != nil {
		return nil, err
	}

	// Allocation passes over the window's first statements, alone on
	// an otherwise idle process.
	n := min(end-w.warmup, allocStatements)
	stmts := make([]*sqlparse.SelectStmt, n)
	parseAllocs := allocsPer(n, func(i int) {
		var e error
		if stmts[i], e = sqlparse.Parse(f.at(w.warmup + i)); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	execAllocs := allocsPer(n, func(i int) {
		if _, e := r.probe.Execute(stmts[i]); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}

	lt := tr.aggregate()
	q, tq := float64(c.queries), float64(c.traced)
	perTraced := func(name string) float64 { return ratio(float64(lt.dur[name]), tq) / 1e3 }
	perLeg := func(name string) float64 { return ratio(float64(lt.dur[name]), float64(lt.count[name])) / 1e3 }
	perAccess := func(name string) float64 { return ratio(float64(lt.dur[name]), float64(c.tracedAccs)) }
	policy, shadow := perAccess("core.policy_access"), perAccess("core.shadow_access")
	tel, led := perAccess("core.telemetry_record"), perAccess("obs.ledger_record")
	var journalNS float64
	if r.journal != nil {
		journalNS = ratio(float64(r.journal.ns), float64(r.journal.n))
	}
	out.queries = c.queries
	out.mixes = r.mixes
	out.selfUS = map[string]float64{}
	for name, ns := range lt.self {
		out.selfUS[name] = ratio(float64(ns), tq) / 1e3
	}
	out.values = map[string]float64{
		"sqlparse.parse_us":             perTraced("sqlparse.parse"),
		"sqlparse.allocs_per_query":     parseAllocs,
		"engine.bind_us":                perTraced("engine.bind"),
		"engine.execute_us":             perTraced("engine.execute"),
		"engine.rows_scanned_per_query": ratio(float64(rowsDelta), q),
		"engine.allocs_per_query":       execAllocs,
		"federation.decompose_us":       perTraced("federation.decompose"),
		"federation.accesses_per_query": ratio(float64(c.accesses), q),
		"federation.mediate_us":         perTraced("federation.mediate"),
		"federation.decide_self_us":     ratio(float64(lt.self["federation.mediate"]), tq) / 1e3,
		"core.policy_access_ns":         policy,
		"core.shadow_access_ns":         shadow,
		"core.telemetry_record_ns":      tel,
		"obs.ledger_record_ns":          led,
		"obs.flight_capture_us":         perTraced("obs.flight_capture"),
		"obs.bookkeeping_share":         ratio(shadow+tel+led, policy+shadow+tel+led),
		"wire.plan_legs_us":             perTraced("wire.plan_legs"),
		"wire.result_encode_us":         perTraced("wire.result_encode"),
		"wire.result_decode_us":         perTraced("wire.result_decode"),
		"wire.result_frame_bytes":       ratio(float64(c.frameBytes), q),
		"wire.subquery_legs_per_query":  ratio(float64(c.subLegs), q),
		"wire.fetch_legs_per_query":     ratio(float64(c.fetchLegs), q),
		"wire.node_subquery_us":         perLeg("wire.node_subquery"),
		"wire.node_fetch_us":            perLeg("wire.node_fetch"),
		"persist.journal_append_ns":     journalNS,
		"persist.snapshot_barrier_us":   perLeg("persist.snapshot_barrier"),
		"persist.wal_bytes_per_query":   ratio(float64(walDelta), q),
		"trace.unattributed_share":      ratio(float64(lt.rootSelf), float64(lt.rootDur)),
		"trace.overhead_share": ratio(ratio(float64(c.servedOn), tq),
			ratio(float64(c.servedOff), float64(c.untraced))) - 1,
	}
	return out, nil
}

// allocsPer returns the heap allocations per call of fn over n calls.
func allocsPer(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}
