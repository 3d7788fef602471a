package main

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer
// list. bound is the share of the parent's median by which an
// end-to-end metric may get worse; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists the gated metrics: what every workload reports from the
// real binaries with tracing off, and BENCHMARK.json carries
// (TestBenchmarkJSON). A metric sits here only if it is defined, and
// never 0, on all six workloads, and if ten runs of unchanged code on
// this box agree on it within the bound. That second condition is why
// the gated timing is a ratio and not a time: the box is a shared VM
// whose neighbours take cache and memory bandwidth in spells of seconds
// to minutes, during which every program on it, the measured ones
// included, runs up to twice as slow, CPU time inflating with wall time.
// No statistic of a 16 s window's op times removes that (ten runs spread
// 15–35 % on the median, the lower quartile and the minimum alike), but
// the harness's reference work (reference.go), read before and after
// every op, slows with the ops: op time ÷ reference time spreads 3–15 %
// over the same runs. op_ref_ratio is the median over the ops of that
// quotient. The times themselves (op_ms_p50, op_ms_hi, ops_per_s,
// cpu_s_per_op, ref_ms_p50 and the workload-specific figures) are
// printed beside the gated rows (see report) and are what a paired
// parent/change comparison reads; they are not bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ref_ratio", "ratio", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer lists what the traced run reports. Each workload's traced
// run fills the rows of the layers on its own path and reports 0 for
// the rest: a 0 is "this workload spends no time there", which for the
// bypass workloads is the prediction being checked.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: better})
		}
	}
	// Campaign path (campaign-cold: the cold pass; campaign-warm: the warm pass).
	add("ms", "lower", "campaign.parse.ms", "campaign.compile.ms", "campaign.materialize.ms",
		"campaign.compute_plain.ms", "campaign.compute_fault.ms", "campaign.compute_churn.ms",
		"campaign.lookup.ms", "campaign.backend_load.ms", "campaign.replay.ms",
		"campaign.store.ms", "campaign.backend_store.ms", "campaign.write_jsonl.ms",
		"obs.sink_observe.ms", "obs.write_canonical.ms", "stats.table_string.ms", "stats.table_csv.ms",
		"trace.unattributed.ms", "cmd.process_overhead.ms", "campaign.plan_run_cold.ms", "campaign.plan_run_warm.ms")
	add("count", "lower", "campaign.lookup.count", "obs.events.count")
	add("B", "lower", "campaign.backend_load.bytes", "campaign.backend_store.bytes",
		"campaign.write_jsonl.bytes", "obs.write_canonical.bytes")
	add("ratio", "lower", "trace.overhead.ratio")
	add("1/s", "higher", "campaign.trials_per_s")
	// Service path (service-fresh and service-repeat).
	add("ms", "lower", "service.post_first_line.ms", "service.stream.ms", "service.get_jsonl.ms",
		"service.get_events.ms", "service.get_table.ms", "service.submit_done.ms_p50", "service.op.ms_hi",
		"service.execute_cold.ms", "service.execute_warm.ms")
	add("count", "lower", "service.stream.events")
	add("B", "lower", "service.stream.bytes")
	add("1/s", "higher", "service.stream.events_per_s")
	add("ns", "lower", "service.coordinator_next.ns", "obs.broadcast_observe_1.ns",
		"obs.broadcast_observe_100.ns", "obs.broadcast_observe_1000.ns", "obs.append_json.ns")
	add("MiB", "lower", "service.daemon_rss.mb")
	// Compute path, large n (scale-sync).
	add("ms", "lower", "graph.torus.ms", "graph.gnp.ms", "engine.system.ms", "core.run_random.ms")
	add("count", "lower", "model.steps.count", "model.rounds.count")
	add("B", "lower", "model.heap_bytes_per_process")
	add("1/s", "higher", "model.activations_per_s")
	add("ns", "lower", "model.activation_nilobs.ns", "model.activation_recorded.ns")
	add("ratio", "lower", "trace.recorder.share")
	for _, s := range schedulerNames {
		add("ns", "lower", "sched.select_"+s+".ns")
	}
	// Compute path, small n (registry).
	add("us", "lower", "core.trial_small.us", "core.faulted_trial.us")
	add("count", "lower", "core.trial_small.allocs")
	for _, id := range experimentIDs {
		add("ms", "lower", "experiment."+id+".ms")
	}
	return defs
}()

// schedulerNames are the six daemons sched.select_*.ns covers.
var schedulerNames = []string{"synchronous", "central-rr", "central-random", "random-subset", "enabled-biased", "laziest-fair"}

// experimentIDs are the registry rows the traced run times one by one:
// E1–E21 minus the wall-clock experiment E12. E19 is timed here although
// the registry workload leaves it out: a direct Entry.Run has a time
// whatever its verdict.
var experimentIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
	"E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21"}
