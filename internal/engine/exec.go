package engine

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"bypassyield/internal/sqlparse"
)

// Result is the outcome of executing a statement. Cardinality and
// size are logical (scaled by the sampling factor); Tuples carries up
// to Config.MaxResultRows materialized sample rows for display and
// transport.
type Result struct {
	// Columns names the output columns (alias, aggregate rendering,
	// or qualified column name).
	Columns []string
	// Rows is the logical result cardinality.
	Rows int64
	// Bytes is the logical result size — the query's yield.
	Bytes int64
	// Tuples holds materialized sample rows (bounded).
	Tuples [][]float64
	// SampleMatches is the unscaled number of matching sample rows
	// (for tests of the scaling arithmetic).
	SampleMatches int64
}

// ExecError reports an execution failure.
type ExecError struct{ Msg string }

func (e *ExecError) Error() string { return "engine: " + e.Msg }

// Execute binds a statement against the database's schema and runs
// it. The execution subset matches the workload: one- and two-table
// statements, conjunctive predicates, equi-joins, aggregates, and TOP.
func (db *DB) Execute(stmt *sqlparse.SelectStmt) (*Result, error) {
	b, err := Bind(db.schema, stmt)
	if err != nil {
		return nil, err
	}
	return db.ExecuteBound(b)
}

// ExecuteBound runs a statement already bound against the database's
// schema, so callers that also need the binding (yield decomposition,
// sub-query planning) bind once.
func (db *DB) ExecuteBound(b *Bound) (*Result, error) {
	if b.Schema != db.schema {
		return nil, &ExecError{Msg: fmt.Sprintf("statement bound against schema %q, database serves %q", b.Schema.Name, db.schema.Name)}
	}
	if len(b.Tables) > 2 {
		return nil, &ExecError{Msg: fmt.Sprintf("%d-table statements not supported (max 2)", len(b.Tables))}
	}
	x := &execution{db: db, b: b}
	defer x.release()
	for i, t := range b.Tables {
		x.tds[i] = db.tables[t.Name]
	}
	var res *Result
	var err error
	if len(b.Tables) == 1 {
		res, err = x.single()
	} else {
		res, err = x.join()
	}
	if err != nil {
		return nil, err
	}
	db.queries.Add(1)
	db.yieldBytes.Add(res.Bytes)
	return res, nil
}

// execution is one statement's run: the bound statement with its FROM
// tables' storage resolved once, so every column a row loop reads is a
// slice index away.
type execution struct {
	db  *DB
	b   *Bound
	tds [2]*tableData // per FROM entry
	// bufs are the statement's row-index buffers — one per scan plus
	// the join's pairs — borrowed from rowBufs until it finishes.
	bufs [3]*[]int32
}

// rowBufs recycles row-index buffers. They die with their statement
// (results copy the values they project), so steady-state execution
// allocates none.
var rowBufs = sync.Pool{New: func() any { return new([]int32) }}

// maxPooledRows bounds the buffers returned to rowBufs.
const maxPooledRows = 1 << 20

// rowBuf borrows an empty buffer of capacity at least n into slot.
func (x *execution) rowBuf(slot, n int) []int32 {
	p := rowBufs.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, 0, n)
	}
	x.bufs[slot] = p
	return (*p)[:0]
}

// release returns the statement's buffers.
func (x *execution) release() {
	for _, p := range x.bufs {
		if p != nil && cap(*p) <= maxPooledRows {
			rowBufs.Put(p)
		}
	}
}

// values returns a bound column's sample values (shared; read-only).
func (x *execution) values(bc BoundCol) []float64 {
	return x.tds[bc.TableIdx].cols[bc.ColIdx]
}

// rowPred is a same-table predicate with its column data resolved.
type rowPred struct {
	left, right   []float64 // right is nil for literals and BETWEEN
	op            sqlparse.CompareOp
	between       bool
	value, lo, hi float64
}

func (p *rowPred) match(i int) bool {
	v := p.left[i]
	switch {
	case p.right != nil:
		return compare(v, p.op, p.right[i])
	case p.between:
		return v >= p.lo && v <= p.hi
	default:
		return compare(v, p.op, p.value)
	}
}

// evalLocal returns the sample row indexes of one table satisfying
// its literal and same-table predicates.
func (x *execution) evalLocal(tableIdx int) []int32 {
	td := x.tds[tableIdx]
	x.db.rowsScanned.Add(int64(td.n))
	var buf [8]rowPred
	preds := buf[:0]
	for _, c := range x.b.Conds {
		if c.Left.TableIdx != tableIdx {
			continue
		}
		p := rowPred{
			left: x.values(c.Left), op: c.Cond.Op, between: c.Cond.Between,
			value: c.Cond.Value, lo: c.Cond.Lo, hi: c.Cond.Hi,
		}
		if c.Right != nil {
			if c.Right.TableIdx != tableIdx {
				continue // cross-table: handled by the join
			}
			p.right = x.values(*c.Right)
		}
		preds = append(preds, p)
	}
	out := x.rowBuf(tableIdx, td.n)
scan:
	for i := 0; i < td.n; i++ {
		for k := range preds {
			if !preds[k].match(i) {
				continue scan
			}
		}
		out = append(out, int32(i))
	}
	return out
}

func compare(l float64, op sqlparse.CompareOp, r float64) bool {
	switch op {
	case sqlparse.OpEq:
		return l == r
	case sqlparse.OpNotEq:
		return l != r
	case sqlparse.OpLt:
		return l < r
	case sqlparse.OpLe:
		return l <= r
	case sqlparse.OpGt:
		return l > r
	case sqlparse.OpGe:
		return l >= r
	default:
		return false
	}
}

// rowSet is a statement's matched sample rows: stride row indexes
// per joined row (one per FROM table), back to back in one slice.
type rowSet struct {
	idx    []int32
	stride int
}

// len returns the number of joined rows.
func (rs rowSet) len() int { return len(rs.idx) / rs.stride }

// at returns joined row i's sample row in FROM table ti.
func (rs rowSet) at(i, ti int) int32 { return rs.idx[i*rs.stride+ti] }

// single evaluates a single-table statement.
func (x *execution) single() (*Result, error) {
	return x.finish(rowSet{idx: x.evalLocal(0), stride: 1})
}

// join evaluates a two-table statement with at least one cross-table
// equi-join condition (cross products are rejected — at sample scale
// alone they can explode).
func (x *execution) join() (*Result, error) {
	type crossPred struct {
		left, right []float64
		lt, rt      int
		op          sqlparse.CompareOp
	}
	var equi []BoundCond  // cross-table equality
	var extra []crossPred // other cross-table comparisons
	for _, c := range x.b.Conds {
		if c.Right == nil || c.Left.TableIdx == c.Right.TableIdx {
			continue
		}
		if c.Cond.Op == sqlparse.OpEq {
			equi = append(equi, c)
		} else {
			extra = append(extra, crossPred{
				left: x.values(c.Left), right: x.values(*c.Right),
				lt: c.Left.TableIdx, rt: c.Right.TableIdx, op: c.Cond.Op,
			})
		}
	}
	if len(equi) == 0 {
		return nil, &ExecError{Msg: "cross products are not supported; add a join condition"}
	}
	type key [2]float64 // up to two join columns; more is rejected
	if len(equi) > 2 {
		return nil, &ExecError{Msg: "at most two equi-join conditions supported"}
	}
	left := x.evalLocal(0)
	right := x.evalLocal(1)

	// Build on the smaller side.
	buildIdx, probeIdx := 0, 1
	buildRows, probeRows := left, right
	if len(right) < len(left) {
		buildIdx, probeIdx = 1, 0
		buildRows, probeRows = right, left
	}
	keyCols := func(tableIdx int) [][]float64 {
		cols := make([][]float64, len(equi))
		for i, c := range equi {
			bc := c.Left
			if bc.TableIdx != tableIdx {
				bc = *c.Right
			}
			cols[i] = x.values(bc)
		}
		return cols
	}
	buildCols := keyCols(buildIdx)
	probeCols := keyCols(probeIdx)
	mk := func(cols [][]float64, row int32) key {
		var k key
		for i, c := range cols {
			k[i] = c[row]
		}
		return k
	}
	ht := make(map[key][]int32, len(buildRows))
	for _, r := range buildRows {
		k := mk(buildCols, r)
		ht[k] = append(ht[k], r)
	}

	pairs := rowSet{idx: x.rowBuf(2, 0), stride: 2}
	for _, pr := range probeRows {
	match:
		for _, br := range ht[mk(probeCols, pr)] {
			var row [2]int32
			row[buildIdx] = br
			row[probeIdx] = pr
			for _, c := range extra {
				if !compare(c.left[row[c.lt]], c.op, c.right[row[c.rt]]) {
					continue match
				}
			}
			pairs.idx = append(pairs.idx, row[0], row[1])
		}
	}
	*x.bufs[2] = pairs.idx // pool the grown array
	return x.finish(pairs)
}

// finish scales cardinality, applies ORDER BY and TOP, computes
// aggregates, and materializes the bounded tuple sample.
func (x *execution) finish(rows rowSet) (*Result, error) {
	b, db := x.b, x.db
	n := rows.len()
	res := &Result{SampleMatches: int64(n)}
	res.Columns = x.outputColumns()

	if b.GroupBy != nil {
		return x.finishGrouped(rows, res)
	}

	logical := int64(n) * db.cfg.SampleEvery
	if b.Stmt.HasAggregate() {
		res.Rows = 1
		res.Bytes = b.ProjectedWidth()
		tuple, err := x.aggregate(rows)
		if err != nil {
			return nil, err
		}
		res.Tuples = [][]float64{tuple}
		return res, nil
	}
	if b.Stmt.Top > 0 && logical > b.Stmt.Top {
		logical = b.Stmt.Top
	}
	res.Rows = logical
	res.Bytes = logical * b.ProjectedWidth()

	limit := n
	if int64(limit) > logical {
		limit = int(logical)
	}
	if limit > db.cfg.MaxResultRows {
		limit = db.cfg.MaxResultRows
	}
	if limit == 0 {
		return res, nil
	}
	// order lists the joined rows to materialize, in output order; only
	// ORDER BY needs every row ranked.
	order := make([]int32, limit)
	if b.OrderBy != nil {
		order = make([]int32, n)
	}
	for i := range order {
		order[i] = int32(i)
	}
	if b.OrderBy != nil {
		vals := x.values(*b.OrderBy)
		ti := b.OrderBy.TableIdx
		desc := b.OrderDesc
		sort.SliceStable(order, func(i, j int) bool {
			vi, vj := vals[rows.at(int(order[i]), ti)], vals[rows.at(int(order[j]), ti)]
			if desc {
				return vi > vj
			}
			return vi < vj
		})
	}
	res.Tuples = x.materialize(rows, order[:limit])
	return res, nil
}

// finishGrouped evaluates a GROUP BY statement: one output row per
// distinct group value among the matches, with aggregates computed
// per group. Group counts of effectively-unique columns (keys,
// floats) scale by the sampling factor; low-cardinality integer
// columns do not (their distinct values are all present in any
// sample).
func (x *execution) finishGrouped(rows rowSet, res *Result) (*Result, error) {
	b, db := x.b, x.db
	gvals := x.values(*b.GroupBy)
	ti := b.GroupBy.TableIdx
	groups := make(map[float64][]int32) // group value → its joined rows' indexes
	for i, s := 0, rows.stride; i < rows.len(); i++ {
		v := gvals[rows.at(i, ti)]
		groups[v] = append(groups[v], rows.idx[i*s:(i+1)*s]...)
	}
	keys := make([]float64, 0, len(groups))
	for v := range groups {
		keys = append(keys, v)
	}
	sort.Float64s(keys)

	logical := int64(len(groups))
	if distinct(*b.GroupBy) >= float64(b.GroupBy.Table.Rows) {
		logical *= db.cfg.SampleEvery
	}
	if b.Stmt.Top > 0 && logical > b.Stmt.Top {
		logical = b.Stmt.Top
	}
	res.Rows = logical
	res.Bytes = logical * b.ProjectedWidth()

	limit := len(keys)
	if int64(limit) > logical {
		limit = int(logical)
	}
	if limit > db.cfg.MaxResultRows {
		limit = db.cfg.MaxResultRows
	}
	if limit == 0 {
		return res, nil
	}
	cols := make([][]float64, len(b.Projs))
	for i, p := range b.Projs {
		if b.ProjAggs[i] != sqlparse.AggNone {
			vals, err := x.aggValues(b.ProjAggs[i], p)
			if err != nil {
				return nil, err
			}
			cols[i] = vals
		}
	}
	for _, v := range keys[:limit] {
		grp := rowSet{idx: groups[v], stride: rows.stride}
		tuple := make([]float64, 0, len(b.Projs))
		for i, p := range b.Projs {
			if b.ProjAggs[i] == sqlparse.AggNone {
				tuple = append(tuple, v)
				continue
			}
			tuple = append(tuple, aggregateOne(b.ProjAggs[i], cols[i], p.TableIdx, grp, db.cfg.SampleEvery))
		}
		res.Tuples = append(res.Tuples, tuple)
	}
	return res, nil
}

// materialize projects the listed joined rows, in order. The tuples
// share one backing array.
func (x *execution) materialize(rows rowSet, order []int32) [][]float64 {
	type proj struct {
		vals []float64
		ti   int
	}
	var projs []proj
	if x.b.Star {
		w := 0
		for _, t := range x.b.Tables {
			w += len(t.Columns)
		}
		projs = make([]proj, 0, w)
		for ti, td := range x.tds[:len(x.b.Tables)] {
			for _, vals := range td.cols {
				projs = append(projs, proj{vals, ti})
			}
		}
	} else {
		projs = make([]proj, 0, len(x.b.Projs))
		for i, p := range x.b.Projs {
			if x.b.ProjAggs[i] != sqlparse.AggNone || p.Col == nil {
				continue
			}
			projs = append(projs, proj{x.values(p), p.TableIdx})
		}
	}
	w := len(projs)
	backing := make([]float64, len(order)*w)
	out := make([][]float64, len(order))
	for r, i := range order {
		tuple := backing[r*w : (r+1)*w : (r+1)*w]
		for k, p := range projs {
			tuple[k] = p.vals[rows.at(int(i), p.ti)]
		}
		out[r] = tuple
	}
	return out
}

// aggregate computes the aggregate tuple over the matching sample
// rows. count and sum scale to logical size; avg/min/max are
// sample statistics (unbiased under uniform sampling).
func (x *execution) aggregate(rows rowSet) ([]float64, error) {
	b := x.b
	out := make([]float64, 0, len(b.Projs))
	for i, p := range b.Projs {
		agg := b.ProjAggs[i]
		if agg == sqlparse.AggNone {
			return nil, &ExecError{Msg: "mixing aggregates and plain columns requires GROUP BY, which is not supported"}
		}
		vals, err := x.aggValues(agg, p)
		if err != nil {
			return nil, err
		}
		out = append(out, aggregateOne(agg, vals, p.TableIdx, rows, x.db.cfg.SampleEvery))
	}
	return out, nil
}

// aggValues resolves an aggregate's argument column; count needs none.
func (x *execution) aggValues(agg sqlparse.AggFunc, p BoundCol) ([]float64, error) {
	if agg == sqlparse.AggCount {
		return nil, nil
	}
	if p.Col == nil {
		return nil, &ExecError{Msg: fmt.Sprintf("%s(*) needs a column argument", agg)}
	}
	return x.values(p), nil
}

// aggregateOne computes one aggregate over the rows' values of a
// column of FROM table ti.
func aggregateOne(agg sqlparse.AggFunc, vals []float64, ti int, rows rowSet, sampleEvery int64) float64 {
	n := rows.len()
	if agg == sqlparse.AggCount {
		return float64(int64(n) * sampleEvery)
	}
	var sum float64
	min, max := math.Inf(1), math.Inf(-1)
	for i := 0; i < n; i++ {
		v := vals[rows.at(i, ti)]
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	switch {
	case agg == sqlparse.AggSum:
		return sum * float64(sampleEvery)
	case n == 0:
		return 0
	case agg == sqlparse.AggAvg:
		return sum / float64(n)
	case agg == sqlparse.AggMin:
		return min
	default:
		return max
	}
}

// outputColumns names the result columns.
func (x *execution) outputColumns() []string {
	b := x.b
	if b.Star {
		var out []string
		for _, td := range x.tds[:len(b.Tables)] {
			out = append(out, td.qual...)
		}
		return out
	}
	out := make([]string, 0, len(b.Stmt.Items))
	for i, item := range b.Stmt.Items {
		switch {
		case item.Alias != "":
			out = append(out, item.Alias)
		case item.Agg != sqlparse.AggNone:
			out = append(out, item.String())
		default:
			p := b.Projs[i]
			out = append(out, x.tds[p.TableIdx].qual[p.ColIdx])
		}
	}
	return out
}
