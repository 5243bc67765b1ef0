package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/sqlparse"
	"bypassyield/internal/wire"
)

// checkError marks a failed output check: the run prints a failed
// result line instead of numbers.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "output check failed: " + e.msg }

func failCheck(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// replyProblem describes why one query's reply is not a complete,
// clean result ("" when it is).
func replyProblem(res *wire.ResultMsg, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case res.Partial:
		return "partial result"
	case len(res.SiteErrors) > 0:
		return fmt.Sprintf("site errors: %v", res.SiteErrors)
	case len(res.TransportErrors) > 0:
		return fmt.Sprintf("transport errors: %v", res.TransportErrors)
	}
	return ""
}

// sent is one statement the client sent and what came back.
type sent struct {
	idx   int
	rows  int64
	bytes int64
	at    time.Duration // completion offset from the loop's start
	accs  []access      // the reply's object accesses
	mix   decisionMix   // the reply's decisions
}

// checkDelivered requires the bytes the client received over the
// window to equal the proxy's D_A increment exactly.
func checkDelivered(clientBytes int64, before, after core.Accounting) error {
	da := after.DeliveredBytes() - before.DeliveredBytes()
	if clientBytes != da {
		return failCheck("client received %d result bytes over the window, proxy ΔD_A is %d", clientBytes, da)
	}
	return nil
}

// checkShards requires the per-partition accountings to sum to the
// global one (Queries is the global sequence, not a partition sum).
func checkShards(st *wire.StatsResultMsg) error {
	if len(st.ShardAccts) == 0 {
		return failCheck("stats carry no per-shard accounting")
	}
	var sum core.Accounting
	for _, a := range st.ShardAccts {
		sum.Add(a)
	}
	sum.Queries = st.Acct.Queries
	if sum != st.Acct {
		return failCheck("Σ ShardAccts %+v != global accounting %+v", sum, st.Acct)
	}
	return nil
}

// oracle answers statements from an in-process engine with the
// federation's release, seed and sample, memoized by text.
type oracle struct {
	db   *engine.DB
	memo map[string][2]int64
}

func newOracle(db *engine.DB) *oracle {
	return &oracle{db: db, memo: make(map[string][2]int64)}
}

func (o *oracle) answer(sql string) ([2]int64, error) {
	if v, ok := o.memo[sql]; ok {
		return v, nil
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return [2]int64{}, err
	}
	res, err := o.db.Execute(stmt)
	if err != nil {
		return [2]int64{}, err
	}
	v := [2]int64{res.Rows, res.Bytes}
	o.memo[sql] = v
	return v, nil
}

// checkResults requires every sent statement's rows and bytes to
// equal the in-process engine's. The engine is safe for concurrent
// use, so one oracle per CPU shares the work.
func checkResults(got []sent, f *feed, db *engine.DB) error {
	workers := runtime.NumCPU()
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := newOracle(db)
			for i := w; i < len(got); i += workers {
				s := got[i]
				sql := f.at(s.idx)
				want, err := o.answer(sql)
				if err != nil {
					errs[w] = fmt.Errorf("oracle: statement %d: %w", s.idx, err)
					return
				}
				if s.rows != want[0] || s.bytes != want[1] {
					errs[w] = failCheck("statement %d (%s): got rows=%d bytes=%d, engine gives rows=%d bytes=%d",
						s.idx, sql, s.rows, s.bytes, want[0], want[1])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// decisionMix counts access decisions by kind.
type decisionMix struct{ accesses, hits, bypasses, loads int64 }

// count adds one decision, named as core.Decision.String names it.
func (m *decisionMix) count(decision string) {
	m.accesses++
	switch decision {
	case "hit":
		m.hits++
	case "bypass":
		m.bypasses++
	case "load":
		m.loads++
	}
}

func (m *decisionMix) add(o decisionMix) {
	m.accesses += o.accesses
	m.hits += o.hits
	m.bypasses += o.bypasses
	m.loads += o.loads
}

func acctMix(a core.Accounting) decisionMix {
	return decisionMix{accesses: a.Accesses, hits: a.Hits, bypasses: a.Bypasses, loads: a.Loads}
}

// windowMix sums the replay's and the live replies' decisions over
// the window statements both ran; replay is keyed by statement index.
func windowMix(live []sent, replay map[int]decisionMix) (r, l decisionMix) {
	for _, s := range live {
		if m, ok := replay[s.idx]; ok {
			r.add(m)
			l.add(s.mix)
		}
	}
	return r, l
}

func (m decisionMix) shares() [3]float64 {
	n := float64(m.accesses)
	return [3]float64{ratio(float64(m.hits), n), ratio(float64(m.bypasses), n), ratio(float64(m.loads), n)}
}

// checkWarmMix requires the traced replay to have decided the warm-up
// exactly as the live proxy did: there the proxy serves one connection,
// so it decides the statements in the replay's order.
func checkWarmMix(replay, live decisionMix) error {
	if replay.accesses == 0 {
		return failCheck("warm-up: the traced replay decided no accesses")
	}
	if replay != live {
		return failCheck("warm-up: traced replay decided %+v, live proxy %+v", replay, live)
	}
	return nil
}

// mixTolerance bounds how far the traced replay's hit share may sit
// from the live proxy's over the window statements both ran. In the
// window the proxy serves two connections and interleaves their
// queries' accesses, so it does not decide the same way twice. Which
// WAN accesses are bypasses and which loads varies most: over three
// live runs of one cache-churn seed the window's load share read 0.006,
// 0.032 and 0.025. So the check holds the hit share, the split between
// local and WAN service; the report line gives all three shares.
const mixTolerance = 0.02

// checkWindowMix requires the replay's window hit share to match the
// live one.
func checkWindowMix(replay, live decisionMix) error {
	if replay.accesses == 0 || live.accesses == 0 {
		return failCheck("window: empty decision mix (replay %d accesses, live %d)", replay.accesses, live.accesses)
	}
	r, l := replay.shares(), live.shares()
	if math.Abs(r[0]-l[0]) > mixTolerance {
		return failCheck("window: traced replay hit share %.4f, live proxy %.4f", r[0], l[0])
	}
	return nil
}
