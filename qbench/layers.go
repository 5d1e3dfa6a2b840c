package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"qasom/internal/bpel"
	"qasom/internal/obs"
	"qasom/internal/semantics"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int64
}

// snapshot is the attribution the middleware exports, read between phases.
type snapshot struct {
	counters               map[string]float64
	onto                   semantics.CacheStats
	spans, flight, dropped uint64
	gom                    goMetrics
	cpu                    time.Duration
}

func takeSnapshot(r *runner) snapshot {
	s := snapshot{counters: map[string]float64{}}
	for _, m := range r.hub.Metrics.Snapshot() {
		if m.Kind != "counter" {
			continue
		}
		for _, ser := range m.Series {
			s.counters[m.Name] += ser.Value
		}
	}
	s.onto = r.mw.Ontology().Stats()
	s.spans = r.hub.Tracer.Total()
	s.flight, s.dropped = r.hub.Flight.Total(), r.hub.Flight.Dropped()
	s.gom = readGoMetrics()
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// layerMetrics attributes the traced phase to the middleware's layers from
// the benchmark's own spans, the flight records of the traced ops, and the
// counter deltas between two snapshots. Phase times are means per Compose
// call; on a plan-cache hit lookup/local/global count as zero, because the
// hit's record carries the durations of the run that filled the cache.
func layerMetrics(r *runner, a, b snapshot) []metric {
	byTrace := map[string]*obs.RequestRecord{}
	recs := r.hub.Flight.Snapshot(obs.FlightQuery{})
	for i := range recs {
		if recs[i].Kind == "compose" || recs[i].Kind == "execute" {
			byTrace[recs[i].Kind+"/"+recs[i].TraceID] = &recs[i]
		}
	}
	var (
		ops, composes, misses, executes, writes, joined           int64
		composeNs, resolveNs, lookupNs, localNs, globalNs, selfNs int64
		evals, swaps, levels                                      int64
		executeNs, writeNs                                        int64
		inv, fails, subs, switches, completed                     int64
		indexHits, fallbacks                                      int64
	)
	for _, spans := range r.spans {
		for i := range spans {
			s := &spans[i]
			dur := s.end - s.start
			key := fmt.Sprintf("%016x", traceTag|uint64(s.n))
			switch s.kind {
			case opCompose:
				ops++
				composes++
				composeNs += dur
				var resolve, lookup int64
				if rec := byTrace["compose/"+key]; rec != nil {
					joined++
					resolve = int64(rec.Phases.Resolve)
					if !rec.CacheHit {
						lookup = int64(rec.Phases.Lookup)
					}
				}
				var local, global int64
				if !s.stats.CacheHit {
					misses++
					local, global = int64(s.stats.LocalPhase), int64(s.stats.GlobalPhase)
					evals += int64(s.stats.Evaluations)
					swaps += int64(s.stats.RepairSwaps)
					levels += int64(s.stats.LevelsExplored)
				}
				resolveNs += resolve
				lookupNs += lookup
				localNs += local
				globalNs += global
				selfNs += max(0, dur-resolve-lookup-local-global)
			case opComposeExecute:
				executes++
				executeNs += dur
				inv += int64(s.report.Invocations)
				fails += int64(s.report.Failures)
				subs += int64(s.report.Substitutions)
				switches += int64(s.report.BehaviourSwitches)
				if s.report.Completed {
					completed++
				}
				if rec := byTrace["execute/"+key]; rec != nil {
					h, f := failoverEvents(rec.Events)
					indexHits += h
					fallbacks += f
				}
			default:
				ops++
				writes++
				writeNs += dur
			}
		}
	}
	d := func(name string) float64 { return b.counters[name] - a.counters[name] }
	lookups := d("qasom_plan_cache_hits_total") + d("qasom_plan_cache_misses_total")
	fops, fcomp, fmiss, fexec := float64(ops), float64(composes), float64(misses), float64(executes)
	matchHits := float64(b.onto.MatchHits - a.onto.MatchHits)
	matchMisses := float64(b.onto.MatchMisses - a.onto.MatchMisses)
	flightTotal := float64(b.flight - a.flight)
	flightDropped := float64(b.dropped - a.dropped)
	totalCPU := b.gom.totalCPU - a.gom.totalCPU
	return []metric{
		{"bpel.resolve_us", ratio(us(resolveNs), fcomp), "us", joined},
		{"qasom.compose_self_us", ratio(us(selfNs), fcomp), "us", composes},
		{"qasom.plancache_hit_frac", ratio(d("qasom_plan_cache_hits_total"), lookups), "ratio", int64(lookups)},
		{"qasom.plancache_epoch_miss_frac", ratio(d("qasom_plan_cache_epoch_invalidations_total"), lookups), "ratio", int64(lookups)},
		{"qasom.plancache_evictions_per_op", ratio(d("qasom_plan_cache_evictions_total"), fcomp), "count", composes},
		{"registry.lookup_us", ratio(us(lookupNs), fcomp), "us", composes},
		{"registry.write_us", ratio(us(writeNs), float64(writes)), "us", writes},
		{"registry.mutations_per_op", ratio(d("qasom_registry_shard_mutations_total"), fops), "count", ops},
		{"semantics.match_hit_frac", ratio(matchHits, matchHits+matchMisses), "ratio", int64(matchHits + matchMisses)},
		{"core.local_us", ratio(us(localNs), fcomp), "us", composes},
		{"core.global_us", ratio(us(globalNs), fcomp), "us", composes},
		{"core.evaluations_per_select", ratio(float64(evals), fmiss), "count", misses},
		{"core.repair_swaps_per_select", ratio(float64(swaps), fmiss), "count", misses},
		{"core.levels_per_select", ratio(float64(levels), fmiss), "count", misses},
		{"exec.execute_us", ratio(us(executeNs), fexec), "us", executes},
		{"exec.invocations_per_op", ratio(float64(inv), fexec), "count", executes},
		{"exec.failures_per_op", ratio(float64(fails), fexec), "count", executes},
		{"exec.completed_frac", ratio(float64(completed), fexec), "ratio", executes},
		{"adapt.substitutions_per_op", ratio(float64(subs), fexec), "count", executes},
		{"adapt.behaviour_switches_per_op", ratio(float64(switches), fexec), "count", executes},
		{"subidx.index_hit_frac", ratio(float64(indexHits), float64(indexHits+fallbacks)), "ratio", indexHits + fallbacks},
		{"subidx.builds_per_op", ratio(d("qasom_subidx_builds_total"), fexec), "count", executes},
		{"monitor.observations_per_op", ratio(d("qasom_monitor_observations_total"), fops), "count", ops},
		{"obs.spans_per_op", ratio(float64(b.spans-a.spans), fops), "count", ops},
		{"obs.flight_dropped_frac", ratio(flightDropped, flightTotal+flightDropped), "ratio", int64(flightTotal + flightDropped)},
		{"go.alloc_kb_per_op", ratio(float64(b.gom.allocBytes-a.gom.allocBytes)/1024, fops), "KB", ops},
		{"go.allocs_per_op", ratio(float64(b.gom.allocObjects-a.gom.allocObjects), fops), "count", ops},
		{"go.gc_cpu_frac", ratio(b.gom.gcCPU-a.gom.gcCPU, totalCPU), "ratio", ops},
		{"go.mutex_wait_us_per_op", ratio((b.gom.mutexWait-a.gom.mutexWait)*1e6, fops), "us", ops},
		{"go.sched_wait_p99_us", histQuantile(a.gom.sched, b.gom.sched, 0.99) * 1e6, "us", ops},
	}
}

// failoverEvents sums how an execute record's substitutions were served:
// by the substitution index, or by a fallback scan.
func failoverEvents(events []string) (indexHits, fallbacks int64) {
	for _, e := range events {
		k, v, ok := strings.Cut(e, "=")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			continue
		}
		switch {
		case k == "failover-index-hits":
			indexHits += n
		case strings.HasPrefix(k, "failover-fallback-"):
			fallbacks += n
		}
	}
	return indexHits, fallbacks
}

// parseSidePass times bpel.ParseString over the workload's documents
// outside the middleware, as the parse cost a request pays on resolve.
func parseSidePass(docs []string, rounds int) (metric, error) {
	samples := make([]float64, 0, rounds*len(docs))
	for i := 0; i < rounds; i++ {
		for _, doc := range docs {
			t := time.Now()
			if _, err := bpel.ParseString(doc); err != nil {
				return metric{}, err
			}
			samples = append(samples, us(int64(time.Since(t))))
		}
	}
	return metric{"bpel.parse_us", median(samples), "us", int64(len(samples))}, nil
}

// generatorMetrics splits open-loop timing into pacing lateness (an idle
// worker sent after the due time) and queue wait (no worker was free at
// the due time).
func generatorMetrics(arr []arrival) []metric {
	late := make([]float64, 0, len(arr))
	wait := make([]float64, 0, len(arr))
	for _, a := range arr {
		if a.shed {
			continue
		}
		late = append(late, us(a.start-max(a.claim, a.due)))
		wait = append(wait, us(max(0, a.claim-a.due)))
	}
	sort.Float64s(late)
	sort.Float64s(wait)
	n := int64(len(late))
	return []metric{
		{"gen.late_p99_us", quantile(late, 0.99), "us", n},
		{"gen.queue_wait_p50_us", quantile(wait, 0.5), "us", n},
		{"gen.queue_wait_p99_us", quantile(wait, 0.99), "us", n},
	}
}

// latencies returns each arrival's time from due to answer in ms, sorted;
// a shed arrival counts as infinitely late.
func latencies(arr []arrival) []float64 {
	out := make([]float64, len(arr))
	for i, a := range arr {
		if a.shed {
			out[i] = math.Inf(1)
		} else {
			out[i] = float64(a.end-a.due) / 1e6
		}
	}
	sort.Float64s(out)
	return out
}
