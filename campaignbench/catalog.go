package main

import (
	"encoding/json"
	"regexp"
)

// metricDef names one reported metric. End-to-end metrics carry the bound
// by which a change may worsen them; per-layer metrics carry the layer
// (module) they belong to and the prediction of which end-to-end metric
// they move, on which workload — written down before any optimisation.
type metricDef struct {
	name    string
	unit    string
	better  string // "lower" or "higher"
	bound   float64
	layer   string
	predict string
}

// endToEnd are the metrics a user of the engines sees, reported by
// untraced runs as the median over the run's campaigns (peak_rss_mb is the
// process high-water mark over the whole run).
var endToEnd = []metricDef{
	{name: "runs_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_us_per_run", unit: "us", better: "lower", bound: 0.25},
	{name: "alloc_kb_per_run", unit: "KiB", better: "lower", bound: 0.10},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

const (
	onCold  = "local-cold-sweep"
	onFleet = "remote-fleet-noop"
	onSim   = "sim-summit-flaky"
	// readPath is where the cache read path is measured: no workload
	// re-submits a campaign, so its cost is replayed, not run.
	readPath = "no workload's end-to-end metric: the read path a re-submission takes, replayed on " +
		onCold + " against the cache its campaign built"
)

// perLayer are the traced run's metrics, grouped by module. A metric reads
// 0 on a workload whose path does not reach that layer.
var perLayer = []metricDef{
	{name: "savanna.slot_gap_us_p50", unit: "us", better: "lower", layer: "savanna",
		predict: "runs_per_s on " + onCold + " and the worker side of " + onFleet},
	{name: "savanna.slot_gap_us_p99", unit: "us", better: "lower", layer: "savanna",
		predict: "runs_per_s on " + onCold + " and the worker side of " + onFleet},
	{name: "savanna.exec_us_p50", unit: "us", better: "lower", layer: "savanna",
		predict: "control: the payload itself; must not move"},
	{name: "savanna.exec_calls_per_run", unit: "count", better: "lower", layer: "savanna",
		predict: "runs_per_s and cpu_us_per_run wherever runs execute"},
	{name: "savanna.overhead_explained_frac", unit: "frac", better: "higher", layer: "savanna",
		predict: "diagnostic: share of the slot gap the replayed layers account for"},
	{name: "failed_run_frac", unit: "frac", better: "lower", layer: "savanna",
		predict: "end-to-end: runs not succeeded or failing their output check; 0 when correct"},

	{name: "cas.memo_record_us_p50", unit: "us", better: "lower", layer: "cas",
		predict: "runs_per_s, cpu_us_per_run, write_kb_per_run on " + onCold + " only"},
	{name: "cas.memo_record_us_p99", unit: "us", better: "lower", layer: "cas",
		predict: "runs_per_s, cpu_us_per_run, write_kb_per_run on " + onCold + " only"},
	{name: "cas.actions_file_kb", unit: "KiB", better: "lower", layer: "cas",
		predict: "memo record cost, hence runs_per_s on " + onCold},
	{name: "cas.put_us_p50", unit: "us", better: "lower", layer: "cas",
		predict: "runs_per_s, cpu_us_per_run, write_kb_per_run on " + onCold + " only"},
	{name: "cas.memo_lookup_us_p50", unit: "us", better: "lower", layer: "cas",
		predict: readPath},
	{name: "cas.materialize_us_p50", unit: "us", better: "lower", layer: "cas",
		predict: readPath},
	{name: "cas.object_kb_per_run", unit: "KiB", better: "lower", layer: "cas",
		predict: "write_kb_per_run on " + onCold},

	{name: "cheetah.status_write_us_p50", unit: "us", better: "lower", layer: "cheetah",
		predict: "runs_per_s, write_kb_per_run on " + onCold + "; none on " + onFleet + " or " + onSim},
	{name: "cheetah.status_write_us_p99", unit: "us", better: "lower", layer: "cheetah",
		predict: "runs_per_s, write_kb_per_run on " + onCold + "; none on " + onFleet + " or " + onSim},
	{name: "cheetah.materialize_s", unit: "s", better: "lower", layer: "cheetah",
		predict: "setup_s on " + onCold},

	{name: "resilience.journal_records_per_run", unit: "count", better: "lower", layer: "resilience",
		predict: "cpu_us_per_run, runs_per_s on " + onFleet + " and " + onCold},
	{name: "resilience.journal_records_per_run.start", unit: "count", better: "lower", layer: "resilience",
		predict: "as resilience.journal_records_per_run"},
	{name: "resilience.journal_records_per_run.success", unit: "count", better: "lower", layer: "resilience",
		predict: "as resilience.journal_records_per_run"},
	{name: "resilience.journal_records_per_run.dispatched", unit: "count", better: "lower", layer: "resilience",
		predict: "as resilience.journal_records_per_run"},
	{name: "resilience.journal_records_per_run.other", unit: "count", better: "lower", layer: "resilience",
		predict: "as resilience.journal_records_per_run"},
	{name: "resilience.journal_bytes_per_run", unit: "bytes", better: "lower", layer: "resilience",
		predict: "write_kb_per_run on " + onFleet + " and " + onCold},
	{name: "resilience.journal_append_us_p50", unit: "us", better: "lower", layer: "resilience",
		predict: "cpu_us_per_run, runs_per_s on " + onFleet + " and " + onCold},
	{name: "resilience.journal_append_us_p99", unit: "us", better: "lower", layer: "resilience",
		predict: "cpu_us_per_run, runs_per_s on " + onFleet + " and " + onCold},
	{name: "resilience.retries_per_run", unit: "count", better: "lower", layer: "resilience",
		predict: "runs_per_s, cpu_us_per_run (host time) on " + onSim},

	{name: "provenance.records_per_run", unit: "count", better: "lower", layer: "provenance",
		predict: "alloc_kb_per_run, peak_rss_mb on " + onCold + " and " + onFleet},
	{name: "provenance.append_us_p50", unit: "us", better: "lower", layer: "provenance",
		predict: "alloc_kb_per_run, peak_rss_mb on " + onCold + " and " + onFleet},

	{name: "remote.msgs_per_run", unit: "count", better: "lower", layer: "remote",
		predict: "cpu_us_per_run, runs_per_s on " + onFleet + " only"},
	{name: "remote.wire_bytes_per_run", unit: "bytes", better: "lower", layer: "remote",
		predict: "cpu_us_per_run, runs_per_s on " + onFleet + " only"},
	{name: "remote.write_us_p50", unit: "us", better: "lower", layer: "remote",
		predict: "cpu_us_per_run, runs_per_s on " + onFleet + " only"},
	{name: "remote.read_wait_us_p50", unit: "us", better: "lower", layer: "remote",
		predict: "runs_per_s on " + onFleet + " only"},
	{name: "remote.encode_us_per_msg", unit: "us", better: "lower", layer: "remote",
		predict: "cpu_us_per_run, runs_per_s on " + onFleet + " only"},
	{name: "remote.decode_us_per_msg", unit: "us", better: "lower", layer: "remote",
		predict: "cpu_us_per_run, runs_per_s on " + onFleet + " only"},
	{name: "remote.dispatch_efficiency", unit: "frac", better: "higher", layer: "remote",
		predict: "runs_per_s on " + onFleet + " only"},

	{name: "hpcsim.events_per_run", unit: "count", better: "lower", layer: "hpcsim",
		predict: "runs_per_s, cpu_us_per_run on " + onSim + " only"},
	{name: "hpcsim.allocations", unit: "count", better: "lower", layer: "hpcsim",
		predict: "simulated output: a check, must not change"},
	{name: "hpcsim.mean_utilization", unit: "frac", better: "higher", layer: "hpcsim",
		predict: "simulated output: a check, must not change"},
	{name: "hpcsim.makespan_h", unit: "h", better: "lower", layer: "hpcsim",
		predict: "simulated output: a check, must not change"},

	{name: "os.write_syscalls_per_run", unit: "count", better: "lower", layer: "os",
		predict: "explains write_kb_per_run"},
	{name: "os.wchar_kb_per_run", unit: "KiB", better: "lower", layer: "os",
		predict: "explains write_kb_per_run"},
	{name: "write_kb_per_run", unit: "KiB", better: "lower", layer: "os",
		predict: "end-to-end: load on a shared filesystem; 0 on " + onSim},

	{name: "telemetry.trace_overhead_frac", unit: "frac", better: "higher", layer: "telemetry",
		predict: "traced runs_per_s / untraced runs_per_s - 1"},
}

// localOnly are the layers only local-cold-sweep reaches. That workload
// is not gated, so BENCHMARK.json leaves their metrics out.
var localOnly = map[string]bool{"cas": true, "cheetah": true}

// gatedLayer lists the per-layer metrics BENCHMARK.json names.
func gatedLayer() []metricDef {
	var out []metricDef
	for _, d := range perLayer {
		if !localOnly[d.layer] {
			out = append(out, d)
		}
	}
	return out
}

// layerMetrics are the per-layer metrics a traced run's result line
// carries: those BENCHMARK.json names on a gated workload, all of them on
// one it does not gate.
func layerMetrics(w *workload) []metricDef {
	if w.gated {
		return gatedLayer()
	}
	return perLayer
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// manifest renders BENCHMARK.json from the catalogue.
func manifest(seconds int) ([]byte, error) {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}
	m.Command = []string{"bash", "campaignbench/run.sh"}
	m.Paths = []string{"campaignbench"}
	m.RunSeconds = seconds
	for _, w := range workloads {
		if w.gated {
			m.Workloads = append(m.Workloads, wl{w.name, w.why})
		}
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range gatedLayer() {
		m.PerLayer = append(m.PerLayer, layer{d.name, d.unit, d.better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	return append(out, '\n'), err
}
