// Package federation implements the mediation layer of the paper's
// prototype: it names cacheable database objects (tables or columns),
// decomposes each query's yield across the objects it references, and
// drives a bypass-yield cache policy with full Figure-1 flow
// accounting.
package federation

import (
	"fmt"
	"sort"
	"strings"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/netcost"
)

// Granularity selects the class of cacheable object, the subject of
// the paper's Section 6.1 comparison.
type Granularity uint8

const (
	// Tables caches whole relations.
	Tables Granularity = iota
	// Columns caches individual attributes.
	Columns
	// Views caches materialized views (with whole tables as the
	// fallback for queries no view can answer) — the third object
	// class the paper names.
	Views
)

// String returns the granularity name.
func (g Granularity) String() string {
	switch g {
	case Tables:
		return "tables"
	case Columns:
		return "columns"
	case Views:
		return "views"
	default:
		return fmt.Sprintf("Granularity(%d)", uint8(g))
	}
}

// ParseGranularity parses "tables", "columns", or "views".
func ParseGranularity(s string) (Granularity, error) {
	switch strings.ToLower(s) {
	case "tables", "table":
		return Tables, nil
	case "columns", "column":
		return Columns, nil
	case "views", "view":
		return Views, nil
	default:
		return 0, fmt.Errorf("federation: unknown granularity %q", s)
	}
}

// TableObjectID names a table object: "release/table".
func TableObjectID(release, table string) core.ObjectID {
	return core.ObjectID(release + "/" + strings.ToLower(table))
}

// ColumnObjectID names a column object: "release/table.column".
func ColumnObjectID(release, table, column string) core.ObjectID {
	return core.ObjectID(release + "/" + strings.ToLower(table) + "." + strings.ToLower(column))
}

// ViewObjectID names a materialized-view object: "release/view:name".
func ViewObjectID(release, view string) core.ObjectID {
	return core.ObjectID(release + "/view:" + strings.ToLower(view))
}

// Objects builds the cacheable-object universe for a schema at the
// given granularity, with fetch costs from the network model. At
// Views granularity the universe holds every standard view plus every
// table (the fallback for queries no view can answer).
func Objects(s *catalog.Schema, g Granularity, nm *netcost.Model) map[core.ObjectID]core.Object {
	out := make(map[core.ObjectID]core.Object)
	for i := range s.Tables {
		t := &s.Tables[i]
		switch g {
		case Tables, Views:
			id := TableObjectID(s.Name, t.Name)
			out[id] = core.Object{
				ID:        id,
				Size:      t.Bytes(),
				FetchCost: nm.FetchCost(t.Bytes(), t.Site),
				Site:      t.Site,
			}
		case Columns:
			for j := range t.Columns {
				c := &t.Columns[j]
				id := ColumnObjectID(s.Name, t.Name, c.Name)
				size := c.Width() * t.Rows
				out[id] = core.Object{
					ID:        id,
					Size:      size,
					FetchCost: nm.FetchCost(size, t.Site),
					Site:      t.Site,
				}
			}
		}
	}
	if g == Views {
		for _, v := range catalog.StandardViews(s) {
			t := s.Table(v.Table)
			if t == nil {
				continue
			}
			size := v.Bytes(t)
			id := ViewObjectID(s.Name, v.Name)
			out[id] = core.Object{
				ID:        id,
				Size:      size,
				FetchCost: nm.FetchCost(size, t.Site),
				Site:      t.Site,
			}
		}
	}
	return out
}

// viewRegion converts a view's defining predicate to engine intervals.
func viewRegion(v *catalog.View) map[string]engine.Interval {
	region := make(map[string]engine.Interval, len(v.Preds))
	for _, p := range v.Preds {
		region[p.Column] = engine.Interval{Lo: p.Lo, Hi: p.Hi}
	}
	return region
}

// viewFor returns the smallest standard view able to answer the
// query's demands on table i — every referenced column present and
// the query region contained in the view's region — or nil when only
// the base table can.
func viewFor(s *catalog.Schema, b *engine.Bound, tableIdx int) *catalog.View {
	t := b.Tables[tableIdx]
	region := b.Region(tableIdx)
	var best *catalog.View
	var bestBytes int64
	refs := b.ReferencedColumns()
	views := catalog.StandardViews(s)
	for i := range views {
		v := &views[i]
		if v.Table != t.Name {
			continue
		}
		ok := true
		for _, r := range refs {
			if r.TableIdx != tableIdx || r.Col == nil {
				continue
			}
			if !v.HasColumn(t, r.Col.Name) {
				ok = false
				break
			}
		}
		if !ok || !engine.RegionContains(viewRegion(v), region) {
			continue
		}
		if bytes := v.Bytes(t); best == nil || bytes < bestBytes {
			best = v
			bestBytes = bytes
		}
	}
	return best
}

// Decompose splits a query's yield across the objects it references,
// following Section 6 of the paper:
//
//   - Tables: "yield for each table ... is divided in proportion to
//     the table's contribution to the unique attributes in the query"
//     — each table's share is its count of distinct referenced
//     columns over the total.
//   - Columns: "query yield is proportional to each attribute based
//     on a ratio of storage size of the attribute to the total
//     storage sizes of all columns referenced in the query".
//
// Shares are integer bytes distributed by largest remainder so they
// sum exactly to the yield (byte conservation is tested).
func Decompose(b *engine.Bound, release string, yield int64, g Granularity) []core.Access {
	refs := b.ReferencedColumns()
	if len(refs) == 0 || yield < 0 {
		return nil
	}
	type share struct {
		id     core.ObjectID
		weight int64
	}
	var shares []share
	switch g {
	case Tables, Views:
		counts := make(map[string]int64)         // table name → attribute count
		objIDs := make(map[string]core.ObjectID) // table name → serving object
		for _, r := range refs {
			counts[r.Table.Name]++
		}
		for i, t := range b.Tables {
			if _, ok := counts[t.Name]; !ok {
				continue
			}
			objIDs[t.Name] = TableObjectID(release, t.Name)
			if g == Views {
				if v := viewFor(b.Schema, b, i); v != nil {
					objIDs[t.Name] = ViewObjectID(release, v.Name)
				}
			}
		}
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			id, ok := objIDs[name]
			if !ok {
				id = TableObjectID(release, name)
			}
			shares = append(shares, share{id, counts[name]})
		}
	case Columns:
		sorted := make([]engine.BoundCol, len(refs))
		copy(sorted, refs)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Table.Name != sorted[j].Table.Name {
				return sorted[i].Table.Name < sorted[j].Table.Name
			}
			return sorted[i].Col.Name < sorted[j].Col.Name
		})
		for _, r := range sorted {
			shares = append(shares, share{ColumnObjectID(release, r.Table.Name, r.Col.Name), r.Col.Width()})
		}
	}

	var total int64
	for _, s := range shares {
		total += s.weight
	}
	if total == 0 {
		return nil
	}
	accesses := make([]core.Access, len(shares))
	var assigned int64
	type rem struct {
		idx int
		rem int64
	}
	rems := make([]rem, len(shares))
	for i, s := range shares {
		v := yield * s.weight
		accesses[i] = core.Access{Object: s.id, Yield: v / total}
		assigned += v / total
		rems[i] = rem{i, v % total}
	}
	// Largest-remainder distribution of the leftover bytes; ties
	// break by slice order (already deterministic).
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].rem > rems[j].rem })
	for i := int64(0); i < yield-assigned; i++ {
		accesses[rems[int(i)%len(rems)].idx].Yield++
	}
	return accesses
}
