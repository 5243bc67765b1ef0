package federation

import (
	"fmt"
	"sync/atomic"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/netcost"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/sqlparse"
)

// Config assembles a mediator.
type Config struct {
	// Schema is the federated release.
	Schema *catalog.Schema
	// Engine executes queries (a full copy of the release, possibly
	// sampled; yields are logical either way).
	Engine *engine.DB
	// Policy is a single bypass-yield cache instance. It pins the
	// decision plane to one partition (a policy instance is
	// single-goroutine); use NewPolicy to shard. Nil with no NewPolicy
	// means no caching (every access bypasses).
	Policy core.Policy
	// NewPolicy, when set, builds one policy instance per decision
	// partition: shard is the partition index, capacity the partition's
	// exact slice of Capacity. All instances must be the same algorithm
	// (the plane has one policy name). Mutually exclusive with Policy.
	NewPolicy func(shard int, capacity int64) (core.Policy, error)
	// Capacity is the total cache capacity in bytes, split exactly
	// across partitions when NewPolicy is set (ignored with Policy,
	// which carries its own capacity).
	Capacity int64
	// Granularity selects table or column objects.
	Granularity Granularity
	// Net is the WAN cost model; nil means uniform.
	Net *netcost.Model
	// Obs, when non-nil, receives the mediator's telemetry: per-query
	// mediation latency (federation.query_latency_us), objects touched
	// (federation.objects_touched), and the core decision/byte-flow
	// families (see core.NewTelemetry). The registry is shared — the
	// proxy serves it over MsgMetrics.
	Obs *obs.Registry
	// Ledger, when non-nil, receives one explained DecisionRecord per
	// object access (served over MsgDecisions by the proxy).
	Ledger *ledger.Ledger
	// Shadows enables online counterfactual accounting: every access is
	// replayed through always-bypass and LRU-K shadow baselines plus
	// the ski-rental bound, feeding the core.bytes_saved_vs_* gauges.
	Shadows bool
	// Shards is the decision-plane partition count, rounded up to a
	// power of two. 0 means GOMAXPROCS rounded up; 1 is the fully
	// serialized single-partition plane. Counts above 1 require
	// NewPolicy (each partition owns its own policy instance).
	Shards int
}

// SiteHealth reports whether a federation site can currently serve
// traffic. The proxy implements it over its per-site circuit
// breakers; the mediator consults it before every decision so an
// unreachable site degrades to serve-from-cache or a failed leg
// instead of a doomed RPC.
type SiteHealth interface {
	// SiteAvailable reports whether the site admits traffic; when it
	// does not, reason explains why ("breaker open site=X ...").
	SiteAvailable(site string) (ok bool, reason string)
}

// Mediator is the federation entry point the paper collocates with
// the proxy cache: it receives SQL, resolves it against the release,
// executes it, decomposes the yield across referenced objects, and
// drives the cache policy with full flow accounting.
//
// The mediator is safe for concurrent use. Query execution (bind,
// engine evaluation, yield decomposition) runs lock-free — the engine
// is an immutable column store with atomic counters — while the
// decision phase runs over per-object partitions (see shard.go): each
// partition serializes its own clock, policy, accounting, and shadow
// baselines under its own lock, so decisions on unrelated objects
// proceed in parallel while Σ decision yields = D_A holds exactly per
// partition and (by summation) globally. A global atomic sequence
// orders queries across partitions for the ledger and the journal.
// Callers execute the decided WAN legs after QueryStmtTraced returns,
// outside any mediator lock — the decide-then-execute handoff.
type Mediator struct {
	cfg     Config
	objects map[core.ObjectID]core.Object

	// policyName and capacity describe the whole plane: every
	// partition runs the same algorithm, capacities sum to capacity.
	policyName string
	capacity   int64

	// g is the global query sequence: incremented once per query, it
	// is the plane-wide clock (Seq, ledger T, journal T) and the total
	// query count.
	g atomic.Int64

	// shards are the decision partitions. health and journal are
	// written under the all-partitions barrier and read under any
	// single partition lock.
	shards  []*decisionShard
	health  SiteHealth
	journal Journal

	// Telemetry (no-ops when cfg.Obs is nil).
	tel          *core.Telemetry
	queryLatency *obs.Histogram
	objsTouched  *obs.Counter
	queriesMet   *obs.Counter

	// Decision audit trail (nil-safe no-op when not configured).
	ledger *ledger.Ledger

	// Replay mode, set by RestoreState: when the restored snapshot was
	// taken under a different partition layout, recorded partition
	// clocks are meaningless and replay skips by global sequence
	// against replayGBase instead (see state.go).
	replayRehash bool
	replayGBase  int64
}

// AccessDecision records the cache's handling of one object access
// within a query.
type AccessDecision struct {
	// Object is the referenced object.
	Object core.ObjectID
	// Site is the owning federation site.
	Site string
	// Yield is the access's share of the query yield. On a failed leg
	// it is the yield the leg would have delivered; nothing was
	// charged for it.
	Yield int64
	// Decision is the cache's choice (Hit for forced serves;
	// meaningless when Failed).
	Decision core.Decision
	// Forced marks a serve-from-cache the policy did not choose
	// freely: the owning site was unavailable, bypass was impossible,
	// and the cached copy was served stale.
	Forced bool
	// Failed marks a leg dropped entirely: site unavailable and the
	// object not cached.
	Failed bool
	// Reason explains a forced or failed decision
	// ("forced-cache: breaker open site=B", ...).
	Reason string
}

// SiteError annotates one unavailable site's impact on a query.
type SiteError struct {
	// Site is the unavailable federation member.
	Site string
	// Reason is the health detail ("breaker open site=B retry-in=2s").
	Reason string
	// LostBytes is the yield dropped from the result because the
	// site's uncached objects could not be served.
	LostBytes int64
}

// ShardWait is the time one query spent blocked on one decision
// partition's lock.
type ShardWait struct {
	// Shard is the partition index.
	Shard int
	// WaitUS is the blocked time in microseconds.
	WaitUS int64
}

// QueryReport is the outcome of one mediated query.
type QueryReport struct {
	// SQL is the original statement.
	SQL string
	// Bound is the statement resolved against the release, bound once
	// per query: the proxy plans bypass sub-queries from it.
	Bound *engine.Bound
	// Seq is the query's position in the mediator's stream.
	Seq int64
	// Result is the execution result (logical cardinality and yield).
	// In degraded mode Result.Bytes excludes the yield of failed legs
	// — it is what the client actually receives, so it still equals
	// the accounting's delivered-bytes increment (D_A).
	Result *engine.Result
	// Decisions lists per-object cache decisions, in access order.
	Decisions []AccessDecision
	// Degraded reports that at least one access was forced or failed.
	Degraded bool
	// SiteErrors details each unavailable site touched by the query.
	SiteErrors []SiteError
	// Phase timings in microseconds, consumed by the proxy's flight
	// recorder for critical-path attribution: ExecUS is the lock-free
	// bind/execute phase, LockWaitUS the total time blocked waiting
	// for decision-partition locks, DecideUS the decision work itself
	// (excluding lock waits).
	ExecUS     int64
	LockWaitUS int64
	DecideUS   int64
	// ShardWaits breaks LockWaitUS down per visited partition, in
	// visit (ascending partition) order.
	ShardWaits []ShardWait
}

// New builds a mediator. The engine must serve the same schema.
func New(cfg Config) (*Mediator, error) {
	if cfg.Schema == nil || cfg.Engine == nil {
		return nil, fmt.Errorf("federation: schema and engine are required")
	}
	if cfg.Engine.Schema() != cfg.Schema {
		return nil, fmt.Errorf("federation: engine serves schema %q, mediator configured for %q",
			cfg.Engine.Schema().Name, cfg.Schema.Name)
	}
	if cfg.Policy != nil && cfg.NewPolicy != nil {
		return nil, fmt.Errorf("federation: Policy and NewPolicy are mutually exclusive")
	}
	nshards := 1
	switch {
	case cfg.Policy != nil:
		// A single policy instance is single-goroutine: it cannot span
		// partitions.
		if cfg.Shards > 1 {
			return nil, fmt.Errorf("federation: %d decision shards require NewPolicy (one policy instance per partition)", cfg.Shards)
		}
	default:
		if cfg.NewPolicy != nil || cfg.Shards > 0 {
			nshards = NumShards(cfg.Shards)
		}
	}
	if cfg.Net == nil {
		cfg.Net = netcost.Uniform()
	}
	m := &Mediator{
		cfg:          cfg,
		objects:      Objects(cfg.Schema, cfg.Granularity, cfg.Net),
		tel:          core.NewTelemetry(cfg.Obs),
		queryLatency: cfg.Obs.Histogram("federation.query_latency_us", obs.DefaultLatencyBuckets()),
		objsTouched:  cfg.Obs.Counter("federation.objects_touched"),
		queriesMet:   cfg.Obs.Counter("federation.queries"),
		ledger:       cfg.Ledger,
	}
	shards, err := newShards(cfg, nshards, m.tel)
	if err != nil {
		return nil, err
	}
	m.shards = shards
	m.policyName = "none"
	if p := shards[0].policy; p != nil {
		m.policyName = p.Name()
		for _, sh := range shards {
			if sh.policy.Name() != m.policyName {
				return nil, fmt.Errorf("federation: decision shard %d runs policy %q, shard 0 runs %q (one algorithm per plane)",
					sh.idx, sh.policy.Name(), m.policyName)
			}
			m.capacity += sh.policy.Capacity()
		}
	}
	return m, nil
}

// Obs returns the registry the mediator publishes into (nil when
// observability is not configured).
func (m *Mediator) Obs() *obs.Registry { return m.cfg.Obs }

// SetHealth attaches a site-health source (the proxy's breakers).
// Nil detaches; every site is then considered available.
func (m *Mediator) SetHealth(h SiteHealth) {
	m.lockAll()
	m.health = h
	m.unlockAll()
}

// Objects returns the cacheable-object universe.
func (m *Mediator) Objects() map[core.ObjectID]core.Object { return m.objects }

// Schema returns the federated release schema.
func (m *Mediator) Schema() *catalog.Schema { return m.cfg.Schema }

// Granularity returns the configured object granularity.
func (m *Mediator) Granularity() Granularity { return m.cfg.Granularity }

// Policy returns the cache policy when the plane has exactly one
// partition (nil when caching is disabled or the plane is sharded —
// per-partition instances are not safe to touch outside their locks;
// use PolicyStats).
func (m *Mediator) Policy() core.Policy {
	if len(m.shards) == 1 {
		return m.shards[0].policy
	}
	return nil
}

// ShardCount returns the number of decision partitions.
func (m *Mediator) ShardCount() int { return len(m.shards) }

// Accounting returns the accumulated flow accounting summed across
// partitions, captured under the all-partitions barrier (consistent:
// never mid-access).
func (m *Mediator) Accounting() core.Accounting {
	m.lockAll()
	defer m.unlockAll()
	return m.accountingLocked()
}

// accountingLocked sums partition accountings; callers hold all
// partition locks. Queries is the global sequence, not the partition
// sum (a query touching k partitions advances k partition clocks).
func (m *Mediator) accountingLocked() core.Accounting {
	var out core.Accounting
	for _, sh := range m.shards {
		out.Add(sh.acct)
	}
	out.Queries = m.g.Load()
	return out
}

// ShardAccountings returns each partition's own flow accounting,
// captured under the all-partitions barrier. Per partition the
// reconciliation invariant holds on its own: Σ that partition's
// decision yields = its DeliveredBytes().
func (m *Mediator) ShardAccountings() []core.Accounting {
	m.lockAll()
	defer m.unlockAll()
	out := make([]core.Accounting, len(m.shards))
	for i, sh := range m.shards {
		out[i] = sh.acct
	}
	return out
}

// Telemetry returns the mediator's core telemetry (nil when
// observability is not configured); the proxy publishes its pipeline
// concurrency gauges through it.
func (m *Mediator) Telemetry() *core.Telemetry { return m.tel }

// Ledger returns the decision ledger (nil when not configured).
func (m *Mediator) Ledger() *ledger.Ledger { return m.ledger }

// Shadows returns the counterfactual shadow set when the plane has
// exactly one partition (nil when disabled or sharded; use
// ShadowStats for the aggregate view). The set mutates under its
// partition's lock.
func (m *Mediator) Shadows() *core.ShadowSet {
	if len(m.shards) == 1 {
		return m.shards[0].shadows
	}
	return nil
}

// PolicyStats is a consistent snapshot of the cache policy's
// externally visible state, aggregated across decision partitions
// under the all-partitions barrier.
type PolicyStats struct {
	Name     string
	Used     int64
	Capacity int64
	// Contents lists cached object ids when the policy implements
	// core.ContentLister (nil otherwise), concatenated across
	// partitions.
	Contents []core.ObjectID
}

// PolicyStats snapshots the policy plane under the all-partitions
// barrier so readers never observe a cache mid-decision; ok is false
// when caching is disabled.
func (m *Mediator) PolicyStats() (ps PolicyStats, ok bool) {
	if m.shards[0].policy == nil {
		return PolicyStats{}, false
	}
	m.lockAll()
	defer m.unlockAll()
	ps = PolicyStats{Name: m.policyName, Capacity: m.capacity}
	for _, sh := range m.shards {
		ps.Used += sh.policy.Used()
		if cl, isLister := sh.policy.(core.ContentLister); isLister {
			ps.Contents = append(ps.Contents, cl.Contents()...)
		}
	}
	return ps, true
}

// ShadowStats is a consistent snapshot of the counterfactual
// baselines, aggregated across decision partitions under the
// all-partitions barrier.
type ShadowStats struct {
	Baselines             []core.ShadowResult
	OptBoundBytes         int64
	CompetitiveRatioMilli int64
}

// ShadowStats snapshots the shadow baselines under the all-partitions
// barrier; zero-valued when shadows are disabled. Baselines and the
// ski-rental bound sum across partitions; the competitive ratio is
// total realized WAN over the total bound.
func (m *Mediator) ShadowStats() ShadowStats {
	m.lockAll()
	defer m.unlockAll()
	var out ShadowStats
	var realizedWAN int64
	for _, sh := range m.shards {
		realizedWAN += sh.shadows.Realized().WANBytes()
		out.OptBoundBytes += sh.shadows.OptBound()
		for bi, r := range sh.shadows.Baselines() {
			if bi == len(out.Baselines) {
				out.Baselines = append(out.Baselines, core.ShadowResult{Name: r.Name})
			}
			out.Baselines[bi].Acct.Add(r.Acct)
			out.Baselines[bi].SavedBytes += r.SavedBytes
		}
	}
	if out.OptBoundBytes > 0 {
		out.CompetitiveRatioMilli = realizedWAN * 1000 / out.OptBoundBytes
	}
	return out
}

// Clock returns the number of queries mediated so far (the global
// query sequence).
func (m *Mediator) Clock() int64 { return m.g.Load() }

// Query parses, executes, and accounts one statement.
func (m *Mediator) Query(sql string) (*QueryReport, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return m.QueryStmt(sql, stmt)
}

// QueryStmt is Query over a pre-parsed statement.
func (m *Mediator) QueryStmt(sql string, stmt *sqlparse.SelectStmt) (*QueryReport, error) {
	return m.QueryStmtTraced(sql, stmt, "")
}

// QueryStmtTraced is QueryStmt carrying the distributed trace id of
// the enclosing query; ledger records emitted for its accesses carry
// the id, linking span waterfalls to the decisions inside them.
func (m *Mediator) QueryStmtTraced(sql string, stmt *sqlparse.SelectStmt, traceID string) (*QueryReport, error) {
	start := time.Now()
	// Execution phase — lock-free. Bind and engine evaluation read only
	// immutable schema/column data; concurrent queries overlap here.
	b, err := engine.Bind(m.cfg.Schema, stmt)
	if err != nil {
		return nil, err
	}
	res, err := m.cfg.Engine.ExecuteBound(b)
	if err != nil {
		return nil, err
	}
	accs := Decompose(b, m.cfg.Schema.Name, res.Bytes, m.cfg.Granularity)
	// Resolve objects before taking any lock; the universe is immutable.
	objs := make([]core.Object, len(accs))
	for i, acc := range accs {
		obj, ok := m.objects[acc.Object]
		if !ok {
			return nil, fmt.Errorf("federation: decomposition produced unknown object %s", acc.Object)
		}
		objs[i] = obj
	}

	execUS := time.Since(start).Microseconds()

	rep, err := m.decide(sql, traceID, res, accs, objs)
	if err != nil {
		return nil, err
	}
	rep.Bound = b
	rep.ExecUS = execUS
	m.queryLatency.Observe(time.Since(start).Microseconds())
	return rep, nil
}

// decide runs the decision phase over pre-resolved accesses. The
// query claims its global sequence number, then visits each touched
// decision partition in ascending index order holding at most one
// partition lock at a time; within a partition, decisions stay
// sequential in partition-clock order so Σ decision yields = D_A is
// exact per partition, and summation keeps it exact globally. The
// contention benchmark drives this entry point directly.
func (m *Mediator) decide(sql, traceID string, res *engine.Result, accs []core.Access, objs []core.Object) (*QueryReport, error) {
	g := m.g.Add(1)
	m.queriesMet.Add(1)
	m.tel.RecordQuery()
	rep := &QueryReport{SQL: sql, Seq: g, Result: res}
	if len(accs) == 0 {
		return rep, nil
	}
	decideStart := time.Now()
	rep.Decisions = make([]AccessDecision, len(accs))
	shardIdx := make([]int, len(accs))
	for i := range accs {
		shardIdx[i] = ShardOf(objs[i].ID, len(m.shards))
	}
	var totalWait time.Duration
	// Ascending-order partition sweep: repeatedly visit the smallest
	// untouched partition index present in the access set. Queries
	// touch a handful of objects, so the quadratic scan is cheaper
	// than sorting.
	prev := -1
	for {
		next := len(m.shards)
		for _, si := range shardIdx {
			if si > prev && si < next {
				next = si
			}
		}
		if next == len(m.shards) {
			break
		}
		if err := m.decideShard(m.shards[next], g, rep, accs, objs, shardIdx, traceID, &totalWait); err != nil {
			return nil, err
		}
		prev = next
	}
	if rep.Degraded {
		m.tel.RecordDegradedQuery()
	}
	m.tel.ObserveDecideWait(totalWait)
	rep.LockWaitUS = totalWait.Microseconds()
	rep.DecideUS = time.Since(decideStart).Microseconds() - rep.LockWaitUS
	if rep.DecideUS < 0 {
		rep.DecideUS = 0
	}
	return rep, nil
}

// decideShard processes the query's accesses owned by one partition
// under that partition's lock.
func (m *Mediator) decideShard(sh *decisionShard, g int64, rep *QueryReport, accs []core.Access, objs []core.Object, shardIdx []int, traceID string, totalWait *time.Duration) error {
	waitStart := time.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	wait := time.Since(waitStart)
	*totalWait += wait
	m.tel.RecordShardQuery(sh.label, wait)
	rep.ShardWaits = append(rep.ShardWaits, ShardWait{Shard: sh.idx, WaitUS: wait.Microseconds()})
	sh.t++
	sh.acct.Queries++
	for i := range accs {
		if shardIdx[i] != sh.idx {
			continue
		}
		obj := objs[i]
		// Degraded mode: an unavailable site makes bypass and load
		// impossible, so the policy is not consulted (outage traffic
		// must not distort its learned rate profiles). The access is
		// forced to serve-from-cache or dropped as a failed leg.
		if m.health != nil {
			if ok, reason := m.health.SiteAvailable(obj.Site); !ok {
				if err := m.degradedAccess(sh, g, rep, i, obj, accs[i].Yield, reason, traceID); err != nil {
					return err
				}
				continue
			}
		}
		d := core.Bypass
		if sh.policy != nil {
			decideStart := time.Now()
			d = sh.policy.Access(sh.t, obj, accs[i].Yield)
			m.tel.ObserveDecide(time.Since(decideStart))
		}
		if err := core.Account(&sh.acct, obj, accs[i].Yield, d); err != nil {
			return err
		}
		m.tel.RecordAccess(m.policyName, obj, accs[i].Yield, d)
		sh.shadows.Access(sh.t, obj, accs[i].Yield, d)
		if m.ledger != nil {
			m.ledger.Record(core.DecisionRecordFor(g, sh.policy, traceID, obj, accs[i].Yield, d))
		}
		if m.journal != nil {
			m.journal.JournalAccess(JournalRecord{Kind: JournalAccess, T: g, ShardT: sh.t, Object: obj.ID, Yield: accs[i].Yield, Decision: d})
		}
		m.objsTouched.Add(1)
		rep.Decisions[i] = AccessDecision{
			Object:   obj.ID, // the universe's copy: records retaining it share one string
			Site:     obj.Site,
			Yield:    accs[i].Yield,
			Decision: d,
		}
	}
	if sh.policy != nil {
		if ev := sh.policy.Evictions(); ev > sh.lastEvictions {
			m.tel.RecordEvictions(m.policyName, ev-sh.lastEvictions)
			sh.lastEvictions = ev
		}
	}
	return nil
}

// degradedAccess handles one access whose owning site is unavailable,
// under the owning partition's lock. Two outcomes, both fully
// accounted:
//
//   - Object cached → forced hit: the cached (possibly stale) copy is
//     served and charged as a hit, so D_A reconciliation stays exact.
//     The ledger records the forced decision with reason
//     "forced-cache: <detail>" and Stale set.
//   - Object not cached → failed leg: nothing is delivered and
//     nothing is charged. The query's result shrinks by the leg's
//     yield, the ledger records action "failed" with zero yield and
//     WAN cost, and the report carries a per-site error annotation.
func (m *Mediator) degradedAccess(sh *decisionShard, g int64, rep *QueryReport, idx int, obj core.Object, yield int64, reason, traceID string) error {
	m.objsTouched.Add(1)
	if sh.policy != nil && sh.policy.Contains(obj.ID) {
		full := core.ReasonForcedCache + ": " + reason
		if err := core.Account(&sh.acct, obj, yield, core.Hit); err != nil {
			return err
		}
		m.tel.RecordForced(m.policyName, obj.Site, obj, yield)
		sh.shadows.Access(sh.t, obj, yield, core.Hit)
		if m.ledger != nil {
			rec := core.DecisionRecordFor(g, sh.policy, traceID, obj, yield, core.Hit)
			rec.Reason = full
			rec.Stale = true
			m.ledger.Record(rec)
		}
		if m.journal != nil {
			m.journal.JournalAccess(JournalRecord{Kind: JournalForced, T: g, ShardT: sh.t, Object: obj.ID, Yield: yield, Decision: core.Hit})
		}
		rep.Decisions[idx] = AccessDecision{
			Object:   obj.ID,
			Site:     obj.Site,
			Yield:    yield,
			Decision: core.Hit,
			Forced:   true,
			Reason:   full,
		}
		noteSiteError(rep, obj.Site, reason, 0)
		return nil
	}
	full := core.ReasonFailedLeg + ": " + reason
	m.tel.RecordFailedLeg(obj.Site)
	if m.ledger != nil {
		rec := ledger.DecisionRecord{
			T:         g,
			Trace:     traceID,
			Object:    string(obj.ID),
			Action:    core.ReasonFailedLeg,
			Size:      obj.Size,
			FetchCost: obj.FetchCost,
			Reason:    full,
		}
		if sh.policy != nil {
			rec.Policy = sh.policy.Name()
		}
		m.ledger.Record(rec)
	}
	if m.journal != nil {
		m.journal.JournalAccess(JournalRecord{Kind: JournalFailed, T: g, ShardT: sh.t, Object: obj.ID, Yield: yield})
	}
	// The client never receives this leg's bytes: shrink the result so
	// delivered bytes still equal the accounting's D_A increment.
	rep.Result.Bytes -= yield
	if rep.Result.Bytes < 0 {
		rep.Result.Bytes = 0
	}
	rep.Decisions[idx] = AccessDecision{
		Object: obj.ID,
		Site:   obj.Site,
		Yield:  yield,
		Failed: true,
		Reason: full,
	}
	noteSiteError(rep, obj.Site, reason, yield)
	return nil
}

// noteSiteError marks the report degraded, aggregating the lost yield
// per site.
func noteSiteError(rep *QueryReport, site, reason string, lost int64) {
	rep.Degraded = true
	for i := range rep.SiteErrors {
		if rep.SiteErrors[i].Site == site {
			rep.SiteErrors[i].LostBytes += lost
			return
		}
	}
	rep.SiteErrors = append(rep.SiteErrors, SiteError{Site: site, Reason: reason, LostBytes: lost})
}

// Subqueries splits a bound multi-table statement into one
// single-table statement per FROM table, as the paper's mediator ships
// sub-queries to each member database (see Subquery).
func Subqueries(b *engine.Bound) []*sqlparse.SelectStmt {
	out := make([]*sqlparse.SelectStmt, len(b.Tables))
	refs := b.ReferencedColumns()
	for i := range b.Tables {
		out[i] = subquery(b, refs, i)
	}
	return out
}

// Subquery is the sub-statement Subqueries ships for FROM table i:
// it projects the columns the mediator needs from that table (its
// referenced columns, including join keys) and applies the table's
// local literal predicates. Cross-table conditions are evaluated at
// the mediator after the per-site results return.
func Subquery(b *engine.Bound, i int) *sqlparse.SelectStmt {
	return subquery(b, b.ReferencedColumns(), i)
}

func subquery(b *engine.Bound, refs []engine.BoundCol, i int) *sqlparse.SelectStmt {
	sub := &sqlparse.SelectStmt{
		From: []sqlparse.TableRef{{Name: b.Tables[i].Name}},
	}
	n := 0
	for _, r := range refs {
		if r.TableIdx == i {
			n++
		}
	}
	sub.Items = make([]sqlparse.SelectItem, 0, n)
	for _, r := range refs {
		if r.TableIdx != i {
			continue
		}
		sub.Items = append(sub.Items, sqlparse.SelectItem{
			Col: sqlparse.ColRef{Column: r.Col.Name},
		})
	}
	if len(sub.Items) == 0 {
		sub.Items = []sqlparse.SelectItem{{Star: true}}
	}
	for _, c := range b.Conds {
		if c.Right != nil || c.Left.TableIdx != i {
			continue
		}
		cond := c.Cond
		cond.Left = sqlparse.ColRef{Column: c.Left.Col.Name}
		sub.Where = append(sub.Where, cond)
	}
	return sub
}
