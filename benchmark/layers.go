package main

import (
	"fmt"
	"time"
)

// layerMetric is one printed figure's name and unit.
type layerMetric struct{ name, unit string }

// endToEnd is every end-to-end metric, printed with -trace 0;
// BENCHMARK.json lists the same names, each with the bound by which a
// change may worsen it. The report prints, with their sample counts, the
// figures left out of this list because they did not repeat within any
// usable bound between runs of the same code on a shared 2-vCPU host:
// throughput and the query tail (on dashboard-hot, whose requests take
// 0.15 ms, they follow the host's steal time) and append latency (the
// disk's fsync latency). error_rate is carried by failed/attempted.
var endToEnd = []layerMetric{
	{"query_p50_ms", "ms"},
	{"server_cpu_us_per_op", "us"},
	{"setup_s", "s"},
	{"recover_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer is every per-layer metric, in print order; BENCHMARK.json
// lists the same names. (T) marks the traced replay, (M) the /metrics
// delta over the served run.
var perLayer = []layerMetric{
	{"serve.http_us", "us"},              // (T) client p50 − in-process ServeQuery p50
	{"serve.encode_us", "us"},            // (T) json.Marshal of the response
	{"query.key_us", "us"},               // (T) cache.QueryKey: parse + canonicalize
	{"admission.wait_us", "us"},          // (M) mean admission queue wait per admitted query
	{"admission.shed", "count"},          // (M)
	{"cache.hit_ratio", "ratio"},         // (M) hits / lookups
	{"cache.upgrade_ratio", "ratio"},     // (M) delta upgrades / lookups
	{"cache.evictions", "count"},         // (M)
	{"cache.hit_us", "us"},               // (T) ServeQuery p50, outcome hit
	{"cache.upgrade_us", "us"},           // (T) ServeQuery p50, outcome upgraded
	{"delta.fallbacks", "count"},         // (M) all reasons; the report splits them
	{"batch.members_per_batch", "count"}, // (M)
	{"batch.bypass", "count"},            // (M) all reasons
	{"plan.prepare_us.kernel-count", "us"},
	{"plan.prepare_us.kernel-sum", "us"},
	{"plan.prepare_us.group-fold", "us"},
	{"plan.execute_us.kernel-count", "us"},
	{"plan.execute_us.kernel-sum", "us"},
	{"plan.execute_us.group-fold", "us"},
	{"plan.allocs_per_query", "count"},      // (T) heap objects per computed query
	{"plan.fallback_ratio", "ratio"},        // (M) algebra fallbacks / planner queries
	{"storage.facts_per_query", "count"},    // (M) fact budget spent / computed queries
	{"storage.kernel.column", "count"},      // (M)
	{"storage.kernel.bitmap", "count"},      // (M)
	{"storage.kernel.shared-scan", "count"}, // (M)
	{"storage.closure_expansions", "count"}, // (M)
	{"storage.live_heap_mb", "MB"},          // (T) after runtime.GC at the end of setup
	{"exec.busy_share", "ratio"},            // (M) worker busy time / (window × connections)
	{"exec.merge_wait_ms", "ms"},            // (M)
	{"segment.append_us.p50", "us"},         // (T) Server.Append
	{"segment.append_us.p99", "us"},         // (T) Server.Append, tail by the percentile rule
	{"segment.fsyncs_per_append", "count"},  // (M)
	{"segment.bytes_per_append", "B"},       // (M) growth of log + segment bytes per append
	{"segment.folds", "count"},              // (M)
	{"setup.generate_s", "s"},               // (T)
	{"setup.engine_build_s", "s"},           // (T)
	{"setup.columns_s", "s"},                // (T)
	{"setup.first_query_ms", "ms"},          // (T)
	{"gc.cpu_fraction", "ratio"},            // (T) GC share of CPU during the replay
	{"gc.cycles_per_kop", "count"},          // (T) GC cycles per 1000 replayed ops
	{"self_ms.request", "ms"},               // (T) self time per layer over the replay
	{"self_ms.query", "ms"},                 // (T)
	{"self_ms.serve", "ms"},                 // (T)
	{"self_ms.plan", "ms"},                  // (T)
	{"self_ms.setup", "ms"},                 // (T)
	{"trace.overhead_pct", "%"},             // (T) traced vs untraced replay wall time
}

// layerMetricsFromScrape derives the (M) metrics from the /metrics
// delta over the timed window. An absent series reads 0; the mechanism
// report says which were absent.
func layerMetricsFromScrape(d delta, elapsed time.Duration, workers int) map[string]float64 {
	m := map[string]float64{}
	sum := d.sum

	wait, okW := sum("mddm_admission_queue_wait_seconds_sum")
	admitted, okA := sum("mddm_admission_admitted_total")
	m["admission.wait_us"] = 1e6 * ratio(wait, admitted, okW, okA)
	m["admission.shed"], _ = sum("mddm_admission_shed_total")

	hits, okH := sum("mddm_cache_hits_total")
	misses, okM := sum("mddm_cache_misses_total")
	ups, okU := sum("mddm_cache_upgrades_total")
	m["cache.hit_ratio"] = ratio(hits, hits+misses, okH, okH && okM)
	m["cache.upgrade_ratio"] = ratio(ups, hits+misses, okU, okH && okM)
	m["cache.evictions"], _ = sum("mddm_cache_evictions_total")
	m["delta.fallbacks"], _ = sum("mddm_delta_fallbacks_total")

	mpbSum, okS := sum("mddm_batch_members_per_batch_sum")
	mpbN, okN := sum("mddm_batch_members_per_batch_count")
	m["batch.members_per_batch"] = ratio(mpbSum, mpbN, okS, okN)
	m["batch.bypass"], _ = sum("mddm_batch_bypass_total")

	planned, okP := d.get(`mddm_plan_queries_total{mode="planned"}`)
	fellBack, okF := d.get(`mddm_plan_queries_total{mode="fallback"}`)
	m["plan.fallback_ratio"] = ratio(fellBack, planned+fellBack, okF, okP && okF)
	spent, okB := sum("mddm_qos_budget_spent_facts_total")
	m["storage.facts_per_query"] = ratio(spent, planned+fellBack, okB, okP)
	m["storage.kernel.column"], _ = d.get(`mddm_storage_kernel_total{kind="column"}`)
	m["storage.kernel.bitmap"], _ = d.get(`mddm_storage_kernel_total{kind="bitmap"}`)
	m["storage.kernel.shared-scan"], _ = sum("mddm_storage_shared_scans_total")
	m["storage.closure_expansions"], _ = sum("mddm_storage_closure_expansions_total")

	busy, okBusy := sum("mddm_exec_worker_busy_seconds_total")
	m["exec.busy_share"] = ratio(busy, elapsed.Seconds()*float64(workers), okBusy, true)
	mw, _ := sum("mddm_exec_merge_wait_seconds_total")
	m["exec.merge_wait_ms"] = 1000 * mw

	appends, okAp := sum("mddm_segment_wal_appends_total")
	fsyncs, okFs := sum("mddm_segment_wal_fsyncs_total")
	m["segment.fsyncs_per_append"] = ratio(fsyncs, appends, okFs, okAp)
	grown, okG := sum("mddm_segment_bytes")
	m["segment.bytes_per_append"] = ratio(grown, appends, okG, okAp)
	m["segment.folds"], _ = sum("mddm_segment_folds_total")
	return m
}

// mechanismReport prints, from the /metrics delta, whether each serving
// mechanism ran. A series a later version renamed or removed prints as
// absent instead of failing the run, so a silent bypass stays visible.
func mechanismReport(rep *report, d delta) {
	line := func(label string, names ...string) {
		s := ""
		for _, n := range names {
			v, ok := d.sum(n)
			if !ok {
				s += fmt.Sprintf(" %s=absent", n)
				continue
			}
			s += fmt.Sprintf(" %s=%g", n, v)
		}
		rep.printf("mechanism %-9s%s", label+":", s)
	}
	line("plan", "mddm_plan_fallbacks_total")
	line("cache", "mddm_cache_hits_total", "mddm_cache_upgrades_total", "mddm_cache_misses_total", "mddm_cache_evictions_total")
	line("delta", "mddm_delta_upgrades_total", "mddm_delta_fallbacks_total")
	line("batch", "mddm_batch_batches_total", "mddm_batch_members_total", "mddm_batch_bypass_total")
	line("storage", "mddm_storage_kernel_total", "mddm_storage_shared_scans_total")
	line("segment", "mddm_segment_wal_appends_total", "mddm_segment_wal_fsyncs_total", "mddm_segment_folds_total")
	for _, name := range []string{"mddm_plan_fallbacks_total", "mddm_delta_fallbacks_total", "mddm_batch_bypass_total"} {
		var parts []string
		by := d.byLabel(name)
		for _, k := range sortedKeys(by) {
			if by[k] != 0 {
				parts = append(parts, fmt.Sprintf("%s=%g", k, by[k]))
			}
		}
		if len(parts) > 0 {
			rep.printf("mechanism %s by reason: %v", name, parts)
		}
	}
}
