package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef is one metric BENCHMARK.json declares: every run prints each
// declared metric of its kind (end-to-end untraced, per-layer traced) on
// every workload, so each one is defined for all four workloads.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the untraced metrics.  op_p50_us/op_p99_us time the
// workload's defining operation (see workloadDoc); qps counts the read
// queries completed by the closed-loop clients.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"open_ms", "ms"},
	{"qps", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"stored_bytes_per_traj", "B"},
	{"rss_peak_mib", "MiB"},
}

// perLayer are the traced-run metrics.  Ratios come with their base as a
// separate count; a ratio whose base is 0 on a workload (no range queries
// on point, no ingestion outside ingest-mixed) reads 0.
var perLayer = []metricDef{
	{"client.transport_self_p50_us", "us"},
	{"client.retries", "count"},
	{"server.handler_p50_us", "us"},
	{"server.self_p50_us", "us"},
	{"server.resp_bytes_per_query", "B"},
	{"server.refused", "count"},
	{"cluster.member_calls_per_range", "ratio"},
	{"cluster.routed_ranges", "count"},
	{"cluster.degraded", "count"},
	{"store.replay_p50_us", "us"},
	{"store.open_manifest_ms", "ms"},
	{"store.first_touch_ms", "ms"},
	{"store.open_alloc_bytes", "B"},
	{"store.open_mallocs", "count"},
	{"store.sidecar_rebuild_frac", "ratio"},
	{"store.shard_opens", "count"},
	{"store.shards_live", "count"},
	{"store.bytes_written_per_raw_byte", "ratio"},
	{"store.raw_bytes_acked", "B"},
	{"store.archive_bytes", "B"},
	{"store.mapped_bytes_peak", "B"},
	{"query.cache_hit_ratio", "ratio"},
	{"query.cache_lookups", "count"},
	{"query.paths_decoded_per_query", "ratio"},
	{"query.instances_skipped_per_query", "ratio"},
	{"query.queries", "count"},
	{"query.trajs_pruned_per_range", "ratio"},
	{"query.trajs_accepted_per_range", "ratio"},
	{"query.ranges", "count"},
	{"stiu.pruned_no_touch_ratio", "ratio"},
	{"stiu.region_probes", "count"},
	{"stiu.region_blocks_decoded", "count"},
	{"stiu.temporal_sections_forced", "count"},
	{"stiu.succinct_bytes", "B"},
	{"stiu.sidecar_bytes", "B"},
	{"stiu.sidecar_decode_ms", "ms"},
	{"stiu.build_s", "s"},
	{"core.compress_s", "s"},
	{"core.loadbytes_ms", "ms"},
	{"core.ratio_total", "ratio"},
	{"core.ratio_t", "ratio"},
	{"core.ratio_e", "ratio"},
	{"core.ratio_d", "ratio"},
	{"core.ratio_p", "ratio"},
	{"ingest.pending_max", "count"},
	{"ingest.drop_frac", "ratio"},
	{"ingest.applied", "count"},
	{"ingest.compactions", "count"},
	{"ingest.wal_bytes_per_traj", "B"},
	{"mapmatch.match_p50_us", "us"},
	{"harness.gen_s", "s"},
	{"harness.control_ms", "ms"},
	{"harness.failed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects everything one workload run measured.  Every value is
// printed as text by name and unit; the final JSON line carries the
// declared set for the run's mode.
type report struct {
	values map[string]metricValue
	order  []string
}

func newReport() *report { return &report{values: map[string]metricValue{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.values[name] = metricValue{Value: v, Unit: unit}
}

// ratio sets name to num/den and base to den (0/0 reads 0).
func (r *report) ratio(name string, num, den float64, base string, baseUnit string) {
	v := 0.0
	if den != 0 {
		v = num / den
	}
	r.set(name, v, "ratio")
	if base != "" {
		r.set(base, den, baseUnit)
	}
}

// printText writes one "name value unit" line per metric, in the order set.
func (r *report) printText(w io.Writer, prefix string) {
	for _, name := range r.order {
		v := r.values[name]
		fmt.Fprintf(w, "%s%-40s %16.6g %s\n", prefix, name, v.Value, v.Unit)
	}
}

// declared returns the metrics of defs, failing if the run lacks any (a
// harness bug: every declared metric is defined for every workload).
func (r *report) declared(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if v.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, v.Unit, d.Unit)
		}
		out[d.Name] = v
	}
	return out, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printResult(w io.Writer, res result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// lat is a latency sample set.
type lat []time.Duration

func (l lat) sorted() lat {
	s := append(lat(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// pct returns the nearest-rank p-quantile (0 < p <= 1) of a sorted set, in
// microseconds.
func (l lat) pct(p float64) float64 {
	if len(l) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(l)))) - 1
	i = max(0, min(i, len(l)-1))
	return float64(l[i].Nanoseconds()) / 1e3
}

// tailPct returns the highest of p99/p90/p50 with at least ten samples
// beyond it, with its label.
func (l lat) tailPct() (float64, string) {
	for _, p := range []struct {
		q     float64
		label string
	}{{0.99, "p99"}, {0.9, "p90"}} {
		if float64(len(l))*(1-p.q) >= 10 {
			return l.pct(p.q), p.label
		}
	}
	return l.pct(0.5), "p50"
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
