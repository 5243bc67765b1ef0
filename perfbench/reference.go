package main

import (
	"fmt"
	"sort"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/federation"
	"bypassyield/internal/netcost"
	"bypassyield/internal/wire"
)

// The paper's objective, WAN bytes (D_S + D_L) per delivered byte,
// depends on the statements as much as on the decisions: on hot-cache
// it is a ~5% residual driven by which cold tables the stream's
// campaigns pick, and its coefficient of variation across seeds is
// about 0.2 at a run's statement count. The end-to-end traffic metric
// therefore divides the live WAN bytes by those of a yardstick fed the
// same accesses: an LRU-K (K = 2) cache of the proxy's capacity,
// replayed by the benchmark from the decisions the replies carry.
// Seed-driven traffic moves both alike; a change in the proxy's
// decisions moves only the numerator.

// access is one object access a reply reported.
type access struct {
	obj   int32
	yield int64
}

// trafficRef is the LRU-K yardstick.
type trafficRef struct {
	objs  []core.Object
	index map[string]int32
	lruk  core.Policy
	t     int64
	acct  core.Accounting // the counted replays' traffic
}

func newTrafficRef(w benchWorkload) (*trafficRef, error) {
	s := catalog.EDR()
	gran, err := federation.ParseGranularity(granularity)
	if err != nil {
		return nil, err
	}
	r := &trafficRef{
		index: map[string]int32{},
		lruk:  core.NewLRUK(int64(w.cachePct*float64(s.TotalBytes())), 2),
	}
	for id, o := range federation.Objects(s, gran, netcost.Uniform()) {
		r.index[string(id)] = int32(len(r.objs))
		r.objs = append(r.objs, o)
	}
	return r, nil
}

// accesses maps a reply's decisions to object indexes. It only reads
// the index, so the closed loop's workers share one yardstick.
func (r *trafficRef) accesses(res *wire.ResultMsg) ([]access, error) {
	out := make([]access, len(res.Decisions))
	for i, d := range res.Decisions {
		k, ok := r.index[d.Object]
		if !ok {
			return nil, fmt.Errorf("reply names unknown object %s", d.Object)
		}
		out[i] = access{obj: k, yield: d.Yield}
	}
	return out, nil
}

// replay feeds a loop's completed queries to the LRU-K cache in
// completion order; count adds their traffic to r.acct.
func (r *trafficRef) replay(l *loopResult, count bool) {
	order := make([]int, len(l.sent))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return l.sent[order[a]].at < l.sent[order[b]].at })
	for _, i := range order {
		r.t++
		for _, a := range l.sent[i].accs {
			obj := r.objs[a.obj]
			d := r.lruk.Access(r.t, obj, a.yield)
			if count {
				core.Account(&r.acct, obj, a.yield, d) //nolint:errcheck // LRU-K returns only valid decisions
			}
		}
	}
}
