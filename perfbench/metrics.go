package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json
// declares the same names and units as the lists below, and a run
// emits every one of them or fails.
type metricDef struct {
	name string
	unit string
}

// endToEndMetrics are measured by the client over the live federation
// with tracing off (--trace 0).
var endToEndMetrics = []metricDef{
	{"throughput_qps", "queries/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"success_rate", "fraction"},
	{"server_cpu_us_per_query", "us/query"},
	{"wan_bytes_vs_lruk", "ratio"},
	{"proxy_peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// layerMetrics come from the traced in-process replay, except the
// ones marked live, which come from the same run's live federation
// (Stats deltas and /proc CPU) (--trace 1).
var layerMetrics = []metricDef{
	{"sqlparse.parse_us", "us"},
	{"sqlparse.allocs_per_query", "allocs/query"},
	{"engine.bind_us", "us"},
	{"engine.execute_us", "us"},
	{"engine.rows_scanned_per_query", "rows/query"},
	{"engine.allocs_per_query", "allocs/query"},
	{"federation.decompose_us", "us"},
	{"federation.accesses_per_query", "accesses/query"},
	{"federation.mediate_us", "us"},
	{"federation.decide_self_us", "us"},
	{"core.policy_access_ns", "ns"},
	{"core.shadow_access_ns", "ns"},
	{"core.telemetry_record_ns", "ns"},
	{"core.wan_bytes_per_delivered_byte", "ratio"}, // live
	{"core.hit_ratio", "fraction"},                 // live
	{"core.bypasses_per_query", "count"},           // live
	{"core.loads_per_query", "count"},              // live
	{"obs.ledger_record_ns", "ns"},
	{"obs.flight_capture_us", "us"},
	{"obs.bookkeeping_share", "fraction"},
	{"wire.plan_legs_us", "us"},
	{"wire.result_encode_us", "us"},
	{"wire.result_decode_us", "us"},
	{"wire.result_frame_bytes", "B"},
	{"wire.subquery_legs_per_query", "legs/query"},
	{"wire.fetch_legs_per_query", "legs/query"},
	{"wire.node_subquery_us", "us"},
	{"wire.node_fetch_us", "us"},
	{"wire.node_bytes_per_query", "B/query"},    // live
	{"wire.proxy_cpu_us_per_query", "us/query"}, // live
	{"wire.node_cpu_us_per_query", "us/query"},  // live
	{"persist.journal_append_ns", "ns"},
	{"persist.snapshot_barrier_us", "us"},
	{"persist.wal_bytes_per_query", "B/query"},
	{"trace.unattributed_share", "fraction"},
	{"trace.overhead_share", "fraction"},
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit pairs every defined metric with its measured value. A missing,
// undefined or non-finite value is an error, so a run never prints a
// partial metric set.
func emit(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("measured value %s has no metric definition", name)
			}
		}
	}
	return out, nil
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile returns the nearest-rank q-quantile, in microseconds, of
// sorted latencies; a failed query (failedLat) counts above every
// limit, so a failure in the tail makes that percentile infinite.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return math.Inf(1)
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	rank = max(rank, 0)
	if sorted[rank] == failedLat {
		return math.Inf(1)
	}
	return float64(sorted[rank].Nanoseconds()) / 1e3
}

// medianOf returns the median of vs.
func medianOf(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// median returns the median of durations, in seconds.
func median(ds []time.Duration) float64 {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = d.Seconds()
	}
	return medianOf(vs)
}
