package metricsrv

import (
	"fmt"
	"io"
	"strings"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled — the
// repository takes no dependencies, and the counter/gauge subset the
// obs snapshots need is a few dozen lines.
//
// Label scheme: every sample carries run="<name>" (and scope="..." for
// per-scope engine counters). Per-tenant samples come from the
// tenant-merged view — one time series per workload-wide tenant however
// many shards it ran across — labeled tenant="<index>",kind="<op>".
// Latency is exposed summary-style: _us{quantile=...} gauges plus
// _us_sum and _us_count, all per tenant.

// promEscape escapes a label value per the exposition format.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// metricDesc declares one metric family once per scrape.
type metricDesc struct {
	name, help, typ string
}

var promFamilies = []metricDesc{
	{"nicbarrier_snapshot_epoch", "Publication epoch of the scope's live snapshot (strictly increasing per scope).", "gauge"},
	{"nicbarrier_snapshot_at_us", "Virtual time of the scope's last publication, simulated microseconds.", "gauge"},
	{"nicbarrier_events_fired_total", "Engine events fired in the scope.", "counter"},
	{"nicbarrier_events_cancelled_total", "Engine events cancelled in the scope.", "counter"},
	{"nicbarrier_records_total", "Trace records emitted across the scope's tracks.", "counter"},
	{"nicbarrier_ops_total", "Globally completed operations per tenant (live count).", "counter"},
	{"nicbarrier_ops_spanned_total", "Operations with emitted spans per tenant (fills at collection).", "counter"},
	{"nicbarrier_packets_sent_total", "Packets injected for the tenant's traffic.", "counter"},
	{"nicbarrier_packets_dropped_total", "Packets dropped for the tenant's traffic.", "counter"},
	{"nicbarrier_drops_total", "Packet drops per tenant split by reason.", "counter"},
	{"nicbarrier_op_timeouts_total", "Recovery deadline expiries per tenant.", "counter"},
	{"nicbarrier_evictions_total", "Members evicted per tenant.", "counter"},
	{"nicbarrier_retries_total", "Retried runs per tenant.", "counter"},
	{"nicbarrier_queue_us_total", "Queue-wait attribution per tenant, simulated microseconds.", "counter"},
	{"nicbarrier_wire_us_total", "Wire-occupancy attribution per tenant, simulated microseconds.", "counter"},
	{"nicbarrier_nic_us_total", "NIC-processing attribution per tenant, simulated microseconds.", "counter"},
	{"nicbarrier_latency_us", "Per-op latency quantiles per tenant, simulated microseconds.", "gauge"},
	{"nicbarrier_latency_us_sum", "Sum of per-op latencies per tenant, simulated microseconds.", "counter"},
	{"nicbarrier_latency_us_count", "Observed per-op latencies per tenant.", "counter"},
	{"nicbarrier_latency_us_max", "Maximum per-op latency per tenant, simulated microseconds.", "gauge"},
}

// WritePrometheus writes every run's published metric state to w in
// the Prometheus text exposition format.
func WritePrometheus(w io.Writer, runs []*Run) {
	for _, f := range promFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
	}
	for _, run := range runs {
		writeRunMetrics(w, run)
	}
}

func writeRunMetrics(w io.Writer, run *Run) {
	snap := run.snap()
	rl := fmt.Sprintf(`run="%s"`, promEscape(run.Name))
	// Clusters of one shape in one run (a barrier entry's clean and
	// faulted runs) share a scope name; repeats are numbered "#2", "#3"
	// so every series stays unique.
	seen := map[string]int{}
	for _, sc := range snap.Scopes {
		seen[sc.Name]++
		name := sc.Name
		if n := seen[sc.Name]; n > 1 {
			name = fmt.Sprintf("%s#%d", sc.Name, n)
		}
		sl := fmt.Sprintf(`%s,scope="%s"`, rl, promEscape(name))
		fmt.Fprintf(w, "nicbarrier_snapshot_epoch{%s} %d\n", sl, sc.Epoch)
		fmt.Fprintf(w, "nicbarrier_snapshot_at_us{%s} %g\n", sl, sc.AtUS)
		fmt.Fprintf(w, "nicbarrier_events_fired_total{%s} %d\n", sl, sc.EventsFired)
		fmt.Fprintf(w, "nicbarrier_events_cancelled_total{%s} %d\n", sl, sc.EventsCancelled)
		fmt.Fprintf(w, "nicbarrier_records_total{%s} %d\n", sl, sc.Records)
	}
	for _, g := range snap.MergeTenants() {
		tl := fmt.Sprintf(`%s,tenant="%d",kind="%s"`, rl, g.Tenant, promEscape(g.Kind))
		fmt.Fprintf(w, "nicbarrier_ops_total{%s} %d\n", tl, g.Done)
		fmt.Fprintf(w, "nicbarrier_ops_spanned_total{%s} %d\n", tl, g.Ops)
		fmt.Fprintf(w, "nicbarrier_packets_sent_total{%s} %d\n", tl, g.Sent)
		fmt.Fprintf(w, "nicbarrier_packets_dropped_total{%s} %d\n", tl, g.Dropped)
		for _, d := range []struct {
			reason string
			n      uint64
		}{
			{"injected", g.Drops.Injected}, {"mid-route", g.Drops.MidRoute},
			{"rejected", g.Drops.Rejected}, {"fail-stop", g.Drops.FailStop},
		} {
			fmt.Fprintf(w, "nicbarrier_drops_total{%s,reason=\"%s\"} %d\n", tl, d.reason, d.n)
		}
		fmt.Fprintf(w, "nicbarrier_op_timeouts_total{%s} %d\n", tl, g.Timeouts)
		fmt.Fprintf(w, "nicbarrier_evictions_total{%s} %d\n", tl, g.Evictions)
		fmt.Fprintf(w, "nicbarrier_retries_total{%s} %d\n", tl, g.Retries)
		fmt.Fprintf(w, "nicbarrier_queue_us_total{%s} %g\n", tl, g.QueueUS)
		fmt.Fprintf(w, "nicbarrier_wire_us_total{%s} %g\n", tl, g.WireUS)
		fmt.Fprintf(w, "nicbarrier_nic_us_total{%s} %g\n", tl, g.NICUS)
		if h := g.Latency; h.Count > 0 {
			for _, q := range []struct {
				q string
				v float64
			}{{"0.5", h.P50US}, {"0.95", h.P95US}, {"0.99", h.P99US}} {
				fmt.Fprintf(w, "nicbarrier_latency_us{%s,quantile=\"%s\"} %g\n", tl, q.q, q.v)
			}
			fmt.Fprintf(w, "nicbarrier_latency_us_sum{%s} %g\n", tl, float64(h.SumNS)/1e3)
			fmt.Fprintf(w, "nicbarrier_latency_us_count{%s} %d\n", tl, h.Count)
			fmt.Fprintf(w, "nicbarrier_latency_us_max{%s} %g\n", tl, h.MaxUS)
		}
	}
}
