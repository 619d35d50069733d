// Package catalog holds the simulator's named runs in one table:
// fault-injection barrier measurements, multi-tenant workloads and
// group-lifecycle churn. cmd/simrun lists and runs the entries and
// prints their reports; cmd/simserve hosts the same entries live.
//
// The table is built from facade types (nicbarrier.Config,
// WorkloadSpec, ChurnSpec), so it lives beside the facade rather than
// inside internal/harness, which the facade itself imports. The
// harness registry holds the paper's sweeps; this table holds single
// measurements with a fixed shape.
package catalog

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"nicbarrier"
)

// barrierWarmup is the number of unmeasured barriers before every
// barrier run.
const barrierWarmup = 5

// BarrierRun is one measurement inside a barrier entry.
type BarrierRun struct {
	Label  string
	Config nicbarrier.Config
	Iters  int
}

// Entry is one named run. Exactly one of Runs, Workload and Churn is
// set; Config is the cluster for Workload and Churn (barrier runs carry
// their own).
type Entry struct {
	Name, Desc string
	// Note closes the report: what the numbers demonstrate.
	Note string
	// Kind tags the entry in simserve's /runs registry.
	Kind     string
	Runs     []BarrierRun
	Config   nicbarrier.Config
	Workload *nicbarrier.WorkloadSpec
	Churn    *nicbarrier.ChurnSpec
}

// Overrides adjusts an entry for one run. Zero fields keep the entry's
// own values; Seed is a pointer because 0 is a valid seed.
type Overrides struct {
	// Ops replaces the measured iterations of barrier runs and the
	// operations per tenant of workloads and churn.
	Ops int
	// Tenants and Partitions apply to workload and churn entries;
	// barrier runs are single-group measurements.
	Tenants, Partitions int
	Seed                *uint64
	Trace               *nicbarrier.Trace
}

// Entries returns the catalog in listing order. Each call builds a
// fresh table, so callers may modify what they get.
func Entries() []Entry {
	xp, qs := nicbarrier.MyrinetLANaiXP, nicbarrier.QuadricsElan3
	cluster := func(ic nicbarrier.Interconnect, nodes int, scheme nicbarrier.Scheme) nicbarrier.Config {
		return nicbarrier.Config{Interconnect: ic, Nodes: nodes, Scheme: scheme, Seed: 1}
	}
	// Barrier runs place ranks on a random permutation of the nodes,
	// as the paper's methodology does.
	run := func(label string, ic nicbarrier.Interconnect, nodes, iters int, faults ...nicbarrier.Fault) BarrierRun {
		cfg := cluster(ic, nodes, nicbarrier.NICCollective)
		cfg.Faults, cfg.Permute = faults, true
		return BarrierRun{label, cfg, iters}
	}
	// pinned keeps rank r on node r, for faults scoped to node IDs.
	pinned := func(r BarrierRun) BarrierRun {
		r.Config.Permute = false
		return r
	}
	fault := func(name, desc, note string, runs ...BarrierRun) Entry {
		return Entry{Name: name, Desc: desc, Note: note, Kind: "fault", Runs: runs}
	}
	workload := func(name, desc, note string, cfg nicbarrier.Config, spec nicbarrier.WorkloadSpec) Entry {
		return Entry{Name: name, Desc: desc, Note: note, Kind: "workload", Config: cfg, Workload: &spec}
	}
	// Most churn clusters leave Scheme at its zero value (HostBased):
	// groups take their algorithm from the ChurnSpec, and the scheme only
	// names the trace scopes ("... host-based"). churn-live keeps the
	// NIC-collective scope name its live metrics have always carried.
	churn := func(name, desc, note string, cfg nicbarrier.Config, spec nicbarrier.ChurnSpec) Entry {
		return Entry{Name: name, Desc: desc, Note: note, Kind: "churn", Config: cfg, Churn: &spec}
	}
	chaos := workload("lossy-chaos", "workload under burst loss, a healing partition and a slow NIC",
		"every op completes: NACK retransmission repairs the burst and partition\n"+
			"losses, at the price of timeout-length p99 tails",
		cluster(xp, 32, nicbarrier.NICCollective), nicbarrier.WorkloadSpec{Tenants: 8, OpsPerTenant: 30})
	chaos.Kind = "chaos"
	chaos.Config.Faults = []nicbarrier.Fault{
		nicbarrier.FaultBurstLoss(0.03, 3),
		nicbarrier.FaultPartition(3, 7).Between(100, 400),
		nicbarrier.FaultSlowNIC(5, 0.5),
	}
	return []Entry{
		fault("lossy-myrinet", "64-node dissemination barrier under 10% random loss",
			"every barrier completed: lost notifications were re-requested by the\n"+
				"receiver-driven NACK path and re-fired from the bit-vector send record",
			run("clean", xp, 64, 50), run("loss-10%", xp, 64, 50, nicbarrier.FaultRandomLoss(0.10))),
		fault("bursty-myrinet", "16-node barrier under Gilbert–Elliott burst loss (5% loss, mean burst 4)",
			"same loss rate, different clustering: bursts concentrate drops in fewer\n"+
				"barriers, so fewer (but heavier) recovery rounds",
			run("uniform-5%", xp, 16, 60, nicbarrier.FaultRandomLoss(0.05)),
			run("burst-5%x4", xp, 16, 60, nicbarrier.FaultBurstLoss(0.05, 4))),
		fault("every-nth", "16-node barrier dropping every 50th collective packet",
			"deterministic drops (aerolab-style every-Nth mode): reproducible\n"+
				"single-loss recovery without RNG variance",
			run("every-50th", xp, 16, 60, nicbarrier.FaultEveryNth(50).OnKinds("barrier-coll"))),
		// In 16-rank dissemination rank 3 notifies rank 7 at distance 4,
		// so the pinned partition really cuts a barrier edge.
		fault("partition-heal", "16-node barrier with links 3<->7 partitioned from t=50us to t=200us",
			"packets between the pair die per-hop inside the window; after the heal,\n"+
				"NACK retransmission repairs the missed rounds and the run completes",
			pinned(run("partition", xp, 16, 60, nicbarrier.FaultPartition(3, 7).Between(50, 200)))),
		fault("crash-recover", "16-node barrier with node 5 crashed from t=0 to t=300us",
			"while crashed, everything node 5 sends or receives is dropped; recovery\n"+
				"retransmissions resynchronize it once the window closes",
			pinned(run("crash-300us", xp, 16, 60, nicbarrier.FaultCrash(5).Between(0, 300)))),
		fault("slow-nic", "16-node barrier with node 0 injecting 5us slower per packet",
			"one degraded NIC slows every barrier: dissemination makes each rank a\n"+
				"dependency of every other within log2(n) rounds",
			run("clean", xp, 16, 60), run("slow-node0", xp, 16, 60, nicbarrier.FaultSlowNIC(0, 5))),
		fault("throttled-myrinet", "8-node barrier with the wire throttled to 25 MB/s",
			"barrier packets are tiny, so even harsh throttling costs little — the\n"+
				"protocol is latency-, not bandwidth-bound (Section 6.3's small static packet)",
			run("clean", xp, 8, 60), run("25MBps", xp, 8, 60, nicbarrier.FaultThrottle(25))),
		fault("jittery-quadrics", "16-node Quadrics chained-RDMA barrier under 1us + [0,3)us jitter",
			"latency-type faults reach Quadrics: hardware reliability protects\n"+
				"against loss, not against a slow network",
			run("clean", qs, 16, 60), run("jitter", qs, 16, 60, nicbarrier.FaultDelay(1, 3))),
		fault("quadrics-loss-immune", "16-node Quadrics barrier with a 20% loss plan (stripped by hardware reliability)",
			"identical rows: loss-type faults cannot touch a hardware-reliable\n"+
				"interconnect, exactly the Quadrics/Myrinet contrast the paper draws",
			run("clean", qs, 16, 60), run("loss-20%", qs, 16, 60, nicbarrier.FaultRandomLoss(0.20))),

		workload("saturate-64", "16 tenants carve a 64-node cluster, back-to-back barriers",
			"every tenant drives its group flat out; aggregate ops/sec is what\n"+
				"the per-group NIC queues buy over serializing on one communicator",
			cluster(xp, 64, nicbarrier.NICCollective), nicbarrier.WorkloadSpec{Tenants: 16, OpsPerTenant: 40}),
		workload("mixed-collectives", "2:1:1 barrier:broadcast:allreduce mix, closed loop with think time",
			"allreduce tenants self-check every iteration's result, so cross-tenant\n"+
				"contamination of NIC group state cannot pass silently",
			cluster(xp, 32, nicbarrier.NICCollective), nicbarrier.WorkloadSpec{
				Tenants: 8, OpsPerTenant: 40,
				BarrierWeight: 2, BroadcastWeight: 1, AllreduceWeight: 1,
				Arrival: nicbarrier.ClosedLoop, MeanGapMicros: 10,
			}),
		workload("open-loop-burst", "open-loop Poisson arrivals faster than service: queueing shows in p99",
			"latency is arrival-to-completion: ops that queue behind a busy group\n"+
				"pay the backlog, which is where open- and closed-loop results diverge",
			cluster(xp, 32, nicbarrier.NICCollective), nicbarrier.WorkloadSpec{
				Tenants: 8, OpsPerTenant: 40, Arrival: nicbarrier.OpenLoop, MeanGapMicros: 4,
			}),
		workload("overlap-crunch", "random overlapping groups contend for shared nodes and links",
			"co-resident groups serialize on the one NIC firmware processor;\n"+
				"fairness below 1.0 is contention, not scheduling bias",
			cluster(xp, 16, nicbarrier.NICCollective), nicbarrier.WorkloadSpec{
				Tenants: 6, OpsPerTenant: 40, GroupSizeMin: 4, GroupSizeMax: 8, Overlap: true,
			}),
		workload("quadrics-tenants", "concurrent chained-RDMA barrier groups on a QsNet fat tree",
			"each tenant's descriptor chain lives in its own Elan slot; hardware\n"+
				"reliability means zero drops whatever the contention",
			cluster(qs, 32, nicbarrier.NICCollective), nicbarrier.WorkloadSpec{Tenants: 8, OpsPerTenant: 40}),
		chaos,

		churn("queue-crunch", "40 tenants churn a 16-node Myrinet cluster; installs queue when NICs fill",
			"cumulative installs are 5x any NIC's slot count: the run only completes\n"+
				"because Close reclaims slots and the FIFO queue serves deferred installs",
			cluster(xp, 16, nicbarrier.HostBased), nicbarrier.ChurnSpec{
				Tenants: 40, OpsPerTenant: 8, GroupSizeMin: 2, GroupSizeMax: 5,
				MeanArrivalGapMicros: 2, Policy: nicbarrier.AdmitQueue, ChargeInstallCosts: true,
			}),
		churn("reconfigure-heavy", "every 2nd tenant swaps membership mid-run (install-new/handoff/uninstall-old)",
			"a swap that cannot get slots on its new members keeps the old membership\n"+
				"(counted as failed) — make-before-break never strands a tenant",
			cluster(xp, 16, nicbarrier.HostBased), nicbarrier.ChurnSpec{
				Tenants: 24, OpsPerTenant: 10, GroupSizeMin: 2, GroupSizeMax: 4,
				MeanArrivalGapMicros: 4, ReconfigureEvery: 2,
				Policy: nicbarrier.AdmitQueue, ChargeInstallCosts: true,
			}),
		churn("spread-placement", "over-capacity tenants are re-placed on the emptiest NICs instead of queued",
			"spread keeps queue waits at zero by moving tenants, at the price of\n"+
				"ignoring their requested placement",
			cluster(xp, 16, nicbarrier.HostBased), nicbarrier.ChurnSpec{
				Tenants: 30, OpsPerTenant: 8, GroupSizeMin: 2, GroupSizeMax: 4,
				MeanArrivalGapMicros: 3, Policy: nicbarrier.AdmitSpread, ChargeInstallCosts: true,
			}),
		churn("quadrics-churn", "chained-RDMA groups arming and disarming Elan descriptor slots under churn",
			"same lifecycle over Elan chain slots; hardware reliability means the\n"+
				"churn's wire accounting shows zero drops",
			cluster(qs, 16, nicbarrier.HostBased), nicbarrier.ChurnSpec{
				Tenants: 40, OpsPerTenant: 8, GroupSizeMin: 2, GroupSizeMax: 5,
				MeanArrivalGapMicros: 2, ReconfigureEvery: 4,
				Policy: nicbarrier.AdmitQueue, ChargeInstallCosts: true,
			}),
		churn("think-time-mix", "slow tenants (think time) hold slots longer, deepening the install queue",
			"slot holding time = ops x (barrier + think): think time turns slot\n"+
				"capacity, not wire bandwidth, into the bottleneck",
			cluster(xp, 8, nicbarrier.HostBased), nicbarrier.ChurnSpec{
				Tenants: 30, OpsPerTenant: 6, GroupSizeMin: 2, GroupSizeMax: 4,
				MeanArrivalGapMicros: 2, MeanThinkMicros: 15,
				Policy: nicbarrier.AdmitQueue, ChargeInstallCosts: true,
			}),
		churn("churn-live", "tenants arrive, install through admission, reconfigure, depart",
			"wide arrival gaps keep NIC slots mostly free and few installs queue, so\n"+
				"the live view follows each tenant's swap and departure rather than a backlog",
			cluster(xp, 16, nicbarrier.NICCollective), nicbarrier.ChurnSpec{
				Tenants: 32, OpsPerTenant: 12, MeanArrivalGapMicros: 30, MeanThinkMicros: 5,
				ReconfigureEvery: 3, Policy: nicbarrier.AdmitQueue,
			}),
	}
}

// Select resolves a comma-separated list of entry names, or "all", in
// the order given.
func Select(names string) ([]Entry, error) {
	all := Entries()
	if names == "all" {
		return all, nil
	}
	var picked []Entry
	for _, want := range strings.Split(names, ",") {
		want = strings.TrimSpace(want)
		i := slices.IndexFunc(all, func(e Entry) bool { return e.Name == want })
		if i < 0 {
			return nil, fmt.Errorf("unknown scenario %q (try -list)", want)
		}
		picked = append(picked, all[i])
	}
	return picked, nil
}

// List writes one line per entry: name, kind and description.
func List(w io.Writer) {
	for _, e := range Entries() {
		fmt.Fprintf(w, "  %-22s %-10s %s\n", e.Name, "["+e.Kind+"]", e.Desc)
	}
}

// BarrierHeader writes the column header of barrier-run rows. A report
// over several barrier entries prints it once, before the first.
func BarrierHeader(w io.Writer) {
	fmt.Fprintf(w, "%-22s %-12s %-10s %5s %6s %10s %10s %9s %8s %8s\n",
		"scenario", "run", "net", "nodes", "iters", "mean(us)", "max(us)", "pkts/bar", "drops", "retx")
}

// Run executes the entry under o, writes its report to w and returns a
// one-line summary. Fault plans that can block a run indefinitely are
// reported through warn before measuring: such a run would never
// return, and the warning is the only explanation the caller gets.
func (e Entry) Run(o Overrides, w io.Writer, warn func(string)) (string, error) {
	switch {
	case e.Workload != nil:
		return e.runWorkload(o, w, warn)
	case e.Churn != nil:
		return e.runChurn(o, w, warn)
	default:
		return e.runBarriers(o, w, warn)
	}
}

// config applies o's seed and trace to cfg and warns about its faults.
func (o Overrides) config(cfg nicbarrier.Config, label string, warn func(string)) nicbarrier.Config {
	if o.Seed != nil {
		cfg.Seed = *o.Seed
	}
	cfg.Trace = o.Trace
	for _, msg := range nicbarrier.ValidateFaults(cfg.Faults) {
		warn(fmt.Sprintf("%s: warning: %s", label, msg))
	}
	return cfg
}

func (e Entry) runBarriers(o Overrides, w io.Writer, warn func(string)) (string, error) {
	var barriers int
	var dropped, retx uint64
	for _, r := range e.Runs {
		cfg := o.config(r.Config, e.Name+"/"+r.Label, warn)
		iters := r.Iters
		if o.Ops > 0 {
			iters = o.Ops
		}
		res, err := nicbarrier.MeasureBarrier(cfg, barrierWarmup, iters)
		if err != nil {
			return "", fmt.Errorf("%s: %w", r.Label, err)
		}
		fmt.Fprintf(w, "%-22s %-12s %-10s %5d %6d %10.2f %10.2f %9.1f %8d %8d\n",
			e.Name, r.Label, netName(cfg.Interconnect), cfg.Nodes, res.Iterations,
			res.MeanMicros, res.MaxMicros, res.PacketsPerBarrier,
			res.DroppedPackets, res.Retransmissions)
		if d := res.Drops; d.Injected+d.MidRoute+d.Rejected+d.Stale > 0 {
			fmt.Fprintf(w, "  drops      injected=%d midroute=%d rejected=%d stale=%d\n",
				d.Injected, d.MidRoute, d.Rejected, d.Stale)
		}
		barriers += res.Iterations
		dropped += res.DroppedPackets
		retx += res.Retransmissions
	}
	fmt.Fprintf(w, "  note: %s\n", strings.ReplaceAll(e.Note, "\n", "\n        "))
	return fmt.Sprintf("%d runs, %d barriers, %d packets dropped, %d retransmissions",
		len(e.Runs), barriers, dropped, retx), nil
}

func (e Entry) runWorkload(o Overrides, w io.Writer, warn func(string)) (string, error) {
	cfg := o.config(e.Config, e.Name, warn)
	cfg.Partitions = o.Partitions
	spec := *e.Workload
	if o.Tenants > 0 {
		spec.Tenants = o.Tenants
	}
	if o.Ops > 0 {
		spec.OpsPerTenant = o.Ops
	}
	res, err := nicbarrier.MeasureWorkload(cfg, spec)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(w, "%s — %s\n", e.Name, e.Desc)
	fmt.Fprintf(w, "%s on %d nodes, %d tenants x %d ops\n",
		cfg.Interconnect, cfg.Nodes, spec.Tenants, spec.OpsPerTenant)
	fmt.Fprintf(w, "  aggregate  %10.1f ops/s over %.1fus makespan, fairness %.3f\n",
		res.AggregateOpsPerSec, res.MakespanMicros, res.Fairness)
	fmt.Fprintf(w, "  wire       %d packets, %d dropped\n", res.Packets, res.DroppedPackets)
	fmt.Fprintf(w, "  %6s %-10s %5s %6s %9s %9s %9s %11s\n",
		"tenant", "op", "size", "ops", "p50(us)", "p99(us)", "max(us)", "ops/s")
	for _, t := range res.Tenants {
		fmt.Fprintf(w, "  %6d %-10s %5d %6d %9.2f %9.2f %9.2f %11.1f\n",
			t.Tenant, t.Operation, t.GroupSize, t.Ops,
			t.P50Micros, t.P99Micros, t.MaxMicros, t.OpsPerSec)
	}
	if o.Trace != nil && len(res.Decomp) > 0 {
		// Where each op type's attributed time went: queue wait, wire
		// transfer, NIC processing.
		fmt.Fprintf(w, "  %-10s %8s %12s %12s %12s %7s %7s %7s\n",
			"decomp", "ops", "queue(us)", "wire(us)", "nic(us)", "queue%", "wire%", "nic%")
		for _, d := range res.Decomp {
			fmt.Fprintf(w, "  %-10s %8d %12.2f %12.2f %12.2f %6.1f%% %6.1f%% %6.1f%%\n",
				d.Operation, d.Ops, d.QueueMicros, d.WireMicros, d.NICMicros,
				100*d.QueueShare, 100*d.WireShare, 100*d.NICShare)
		}
	}
	fmt.Fprintf(w, "note: %s\n\n", e.Note)
	summary := fmt.Sprintf("%d ops, %.0f ops/s aggregate, fairness %.3f",
		res.TotalOps, res.AggregateOpsPerSec, res.Fairness)
	if res.DroppedPackets > 0 {
		summary += fmt.Sprintf(", %d packets dropped", res.DroppedPackets)
	}
	return summary, nil
}

func (e Entry) runChurn(o Overrides, w io.Writer, warn func(string)) (string, error) {
	cfg := o.config(e.Config, e.Name, warn)
	cfg.Partitions = o.Partitions
	spec := *e.Churn
	if o.Tenants > 0 {
		spec.Tenants = o.Tenants
	}
	if o.Ops > 0 {
		spec.OpsPerTenant = o.Ops
	}
	res, err := nicbarrier.MeasureChurn(cfg, spec)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(w, "%s — %s\n", e.Name, e.Desc)
	fmt.Fprintf(w, "%s on %d nodes, %d tenants x %d ops, policy %s\n",
		cfg.Interconnect, cfg.Nodes, spec.Tenants, spec.OpsPerTenant, spec.Policy)
	fmt.Fprintf(w, "  completed  %d tenants, %d ops in %.1fus (%.0f ops/s aggregate)\n",
		res.Completed, res.TotalOps, res.MakespanMicros, res.AggregateOpsPerSec)
	fmt.Fprintf(w, "  lifecycle  %d installs / %d uninstalls, slot high water %d\n",
		res.Installs, res.Uninstalls, res.SlotHighWater)
	fmt.Fprintf(w, "  admission  %d queued (max backlog %d), wait mean %.2fus p95 %.2fus\n",
		res.QueuedInstalls, res.MaxQueueLen, res.QueueWaitMeanMicros, res.QueueWaitP95Micros)
	fmt.Fprintf(w, "  reconfig   %d swapped, %d refused (kept old membership)\n",
		res.Reconfigs, res.ReconfigsFailed)
	if res.PreSwapOps > 0 || res.PostSwapOps > 0 {
		fmt.Fprintf(w, "  swap-lat   pre  p50 %.2fus p95 %.2fus p99 %.2fus (%d ops)\n",
			res.PreSwapP50Micros, res.PreSwapP95Micros, res.PreSwapP99Micros, res.PreSwapOps)
		fmt.Fprintf(w, "             post p50 %.2fus p95 %.2fus p99 %.2fus (%d ops)\n",
			res.PostSwapP50Micros, res.PostSwapP95Micros, res.PostSwapP99Micros, res.PostSwapOps)
	}
	fmt.Fprintf(w, "  wire       %d packets, %d dropped\n", res.Packets, res.DroppedPackets)
	fmt.Fprintf(w, "note: %s\n\n", e.Note)
	return fmt.Sprintf("%d/%d tenants completed, %d ops, %d queued installs",
		res.Completed, res.Tenants, res.TotalOps, res.QueuedInstalls), nil
}

// netName is the short interconnect name of barrier-run rows.
func netName(ic nicbarrier.Interconnect) string {
	switch ic {
	case nicbarrier.QuadricsElan3:
		return "quadrics"
	case nicbarrier.MyrinetLANai91:
		return "lanai9.1"
	default:
		return "lanai-xp"
	}
}
