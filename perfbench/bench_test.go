package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/wire"
)

func TestSameSeedSameStream(t *testing.T) {
	a, err := newFeed(7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newFeed(7)
	c, _ := newFeed(8)
	differs := false
	for i := 0; i < 500; i++ {
		if a.at(i) != b.at(i) {
			t.Fatalf("seed 7 statement %d differs between streams:\n%s\n%s", i, a.at(i), b.at(i))
		}
		differs = differs || a.at(i) != c.at(i)
	}
	if !differs {
		t.Fatal("seeds 7 and 8 produced the same 500 statements")
	}
	// Random access reads the same statement as sequential generation.
	d, _ := newFeed(7)
	if d.at(499) != a.at(499) || d.at(3) != a.at(3) {
		t.Fatal("feed.at is not index-stable")
	}
}

func isCheckError(err error) bool {
	var ce *checkError
	return errors.As(err, &ce)
}

func TestDoctoredReplyFailsCheck(t *testing.T) {
	db, err := engine.Open(catalog.EDR(), engine.Config{SampleEvery: 100000, Seed: dataSeed})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := newFeed(3)
	o := newOracle(db)
	var good []sent
	var delivered int64
	for i := 0; i < 50; i++ {
		want, err := o.answer(f.at(i))
		if err != nil {
			t.Fatal(err)
		}
		good = append(good, sent{idx: i, rows: want[0], bytes: want[1]})
		delivered += want[1]
	}
	if err := checkResults(good, f, db); err != nil {
		t.Fatalf("faithful replies fail the check: %v", err)
	}
	before := core.Accounting{BypassBytes: 1000, CacheBytes: 500}
	after := before
	after.CacheBytes += delivered
	if err := checkDelivered(delivered, before, after); err != nil {
		t.Fatalf("exact delivered bytes fail the check: %v", err)
	}

	t.Run("bytes off by one", func(t *testing.T) {
		bad := append([]sent(nil), good...)
		bad[17].bytes++
		if err := checkResults(bad, f, db); !isCheckError(err) {
			t.Fatalf("checkResults = %v, want a check failure", err)
		}
		if err := checkDelivered(delivered+1, before, after); !isCheckError(err) {
			t.Fatalf("checkDelivered = %v, want a check failure", err)
		}
	})
	t.Run("rows off by one", func(t *testing.T) {
		bad := append([]sent(nil), good...)
		bad[3].rows--
		if err := checkResults(bad, f, db); !isCheckError(err) {
			t.Fatalf("checkResults = %v, want a check failure", err)
		}
	})
	t.Run("flags", func(t *testing.T) {
		clean := &wire.ResultMsg{Rows: 1, Bytes: 8}
		if p := replyProblem(clean, nil); p != "" {
			t.Fatalf("clean reply flagged: %s", p)
		}
		for name, res := range map[string]*wire.ResultMsg{
			"partial":   {Rows: 1, Bytes: 8, Partial: true},
			"site":      {Rows: 1, Bytes: 8, SiteErrors: []wire.SiteErrorMsg{{Site: "spec.sdss.org"}}},
			"transport": {Rows: 1, Bytes: 8, TransportErrors: []wire.SiteErrorMsg{{Site: "photo.sdss.org"}}},
		} {
			if replyProblem(res, nil) == "" {
				t.Errorf("%s reply passes the check", name)
			}
		}
		if replyProblem(nil, errors.New("wire: server: boom")) == "" {
			t.Error("error reply passes the check")
		}
	})
	t.Run("shard sum", func(t *testing.T) {
		a := core.Accounting{Accesses: 3, Hits: 2, Bypasses: 1, CacheBytes: 40, BypassBytes: 9, YieldBytes: 49}
		b := core.Accounting{Accesses: 1, Loads: 1, FetchBytes: 70, CacheBytes: 5, YieldBytes: 5}
		global := a
		global.Add(b)
		global.Queries = 4
		st := &wire.StatsResultMsg{Acct: global, ShardAccts: []core.Accounting{a, b}}
		if err := checkShards(st); err != nil {
			t.Fatalf("consistent shards fail the check: %v", err)
		}
		st.ShardAccts[1].CacheBytes++
		if err := checkShards(st); !isCheckError(err) {
			t.Fatalf("checkShards = %v, want a check failure", err)
		}
	})
	t.Run("warm-up decision mix", func(t *testing.T) {
		live := acctMix(core.Accounting{Accesses: 1000, Hits: 900, Bypasses: 80, Loads: 20})
		if err := checkWarmMix(live, live); err != nil {
			t.Fatalf("identical mix fails the check: %v", err)
		}
		off := acctMix(core.Accounting{Accesses: 1000, Hits: 900, Bypasses: 81, Loads: 19})
		if err := checkWarmMix(off, live); !isCheckError(err) {
			t.Fatalf("checkWarmMix = %v, want a check failure", err)
		}
	})
	t.Run("window decision mix", func(t *testing.T) {
		mixOf := func(ds ...string) decisionMix {
			var m decisionMix
			for _, d := range ds {
				m.count(d)
			}
			return m
		}
		// The replay covered statements 2-4 and the live window 2-5,
		// so statement 5 is left out.
		replay := map[int]decisionMix{2: mixOf("hit", "hit"), 3: mixOf("hit", "bypass"), 4: mixOf("hit")}
		agree := []sent{
			{idx: 3, mix: mixOf("hit", "load")}, {idx: 2, mix: mixOf("hit", "hit")},
			{idx: 4, mix: mixOf("hit")}, {idx: 5, mix: mixOf("bypass", "bypass", "bypass")},
		}
		r, l := windowMix(agree, replay)
		if err := checkWindowMix(r, l); err != nil {
			t.Fatalf("matching hit share fails the check: %v", err)
		}
		diverge := append([]sent(nil), agree...)
		diverge[1].mix = mixOf("bypass", "bypass")
		r, l = windowMix(diverge, replay)
		if err := checkWindowMix(r, l); !isCheckError(err) {
			t.Fatalf("checkWindowMix = %v, want a check failure", err)
		}
	})
}

func TestFailedQueriesMissEveryLatencyLimit(t *testing.T) {
	lat := make([]time.Duration, 99)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Microsecond
	}
	if got := percentile(lat, 0.5); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if got := percentile(lat, 0.99); got != 99 {
		t.Fatalf("p99 = %v, want 99", got)
	}
	if got := percentile(append(lat, failedLat, failedLat), 0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with failures = %v, want +Inf", got)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bj.Workloads {
		wl = append(wl, w.Name)
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", wl, len(workloads))
	}
	compare := func(kind string, defs []metricDef, names, units []string) {
		if len(defs) != len(names) {
			t.Errorf("%s: the program defines %d metrics, BENCHMARK.json %d", kind, len(defs), len(names))
			return
		}
		for i, d := range defs {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s[%d]: program %s (%s), BENCHMARK.json %s (%s)", kind, i, d.name, d.unit, names[i], units[i])
			}
		}
	}
	var names, units []string
	for _, m := range bj.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	compare("end_to_end", endToEndMetrics, names, units)
	names, units = nil, nil
	for _, m := range bj.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	compare("per_layer", layerMetrics, names, units)

	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), layerMetrics...) {
		if !nameRule.MatchString(d.name) || !unitRule.MatchString(d.unit) {
			t.Errorf("metric %q unit %q breaks the naming rule", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestEveryWorkloadEmitsEveryMetric runs a short traced replay of
// each workload and feeds synthetic live figures through the same
// assembly a run uses: every metric must come out, with its unit.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	live := &liveRun{
		setups: []time.Duration{30 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond},
		before: wire.StatsResultMsg{Queries: 100, Acct: core.Accounting{Accesses: 900, Hits: 800, Bypasses: 90, Loads: 10, BypassBytes: 100, CacheBytes: 900}},
		after:  wire.StatsResultMsg{Queries: 200, Acct: core.Accounting{Accesses: 1800, Hits: 1610, Bypasses: 175, Loads: 15, BypassBytes: 180, FetchBytes: 40, CacheBytes: 1900}},
		window: &loopResult{
			lat:     []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond},
			sent:    []sent{{at: 100 * time.Millisecond}, {at: 700 * time.Millisecond}, {at: 1001 * time.Millisecond}},
			elapsed: time.Second,
		},
		cpu1:           cpuSet{proxy: 50 * time.Millisecond, nodes: 10 * time.Millisecond},
		proxyPeakRSSMB: 14,
		refWAN:         400,
	}
	if _, err := emit(endToEndMetrics, endToEndValues(live)); err != nil {
		t.Fatalf("end-to-end: %v", err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.warmup = 40
			f, _ := newFeed(5)
			dir := t.TempDir()
			tr, err := runTrace(w, f, 300*time.Millisecond, dir, filepath.Join(dir, "spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			values := tr.values
			for k, v := range liveLayerValues(live) {
				values[k] = v
			}
			got, err := emit(layerMetrics, values)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range layerMetrics {
				if got[d.name].Unit != d.unit {
					t.Errorf("%s emitted with unit %q, want %q", d.name, got[d.name].Unit, d.unit)
				}
			}
			if tr.values["wire.result_frame_bytes"] <= 0 || tr.values["federation.mediate_us"] <= 0 {
				t.Errorf("traced replay measured nothing: %v", tr.values)
			}
			if wal := tr.values["persist.wal_bytes_per_query"]; (wal > 0) != w.durable {
				t.Errorf("persist.wal_bytes_per_query = %v on durable=%v", wal, w.durable)
			}
		})
	}
}

func TestTrafficRefCountsTheWindowOnly(t *testing.T) {
	w, _ := lookupWorkload("cache-churn")
	ref, err := newTrafficRef(w)
	if err != nil {
		t.Fatal(err)
	}
	id := "edr/photoobj.ra"
	accs, err := ref.accesses(&wire.ResultMsg{Decisions: []wire.DecisionMsg{{Object: id, Yield: 1000}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.accesses(&wire.ResultMsg{Decisions: []wire.DecisionMsg{{Object: "edr/nosuch.col"}}}); err == nil {
		t.Fatal("an unknown object was accepted")
	}
	loop := func(n int) *loopResult {
		l := &loopResult{}
		for i := 0; i < n; i++ {
			l.sent = append(l.sent, sent{at: time.Duration(n-i) * time.Millisecond, accs: accs})
		}
		return l
	}
	ref.replay(loop(3), false)
	if ref.acct != (core.Accounting{}) {
		t.Fatalf("warm-up replay was counted: %+v", ref.acct)
	}
	ref.replay(loop(4), true)
	if ref.acct.Accesses != 4 || ref.acct.YieldBytes != 4000 || ref.t != 7 {
		t.Fatalf("window replay: acct %+v after %d accesses, want 4 accesses of 1000 bytes after 7", ref.acct, ref.t)
	}
}
