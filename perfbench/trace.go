package main

import (
	"bytes"
	"fmt"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// runTraced measures w twice, each for half of d: a plain pass as the
// reference for the tracing overhead and the set-up split, then a traced
// pass with event observers on every engine the benchmark can reach,
// each instance under its own CPU profile. It reports the per-layer
// metrics.
func runTraced(w workload, or *oracle, seed uint64, d time.Duration) (report, error) {
	plain, err := measure(w, or, seed, false, d/2)
	if err != nil {
		return report{}, err
	}
	traced, err := measure(w, or, seed, true, d/2)
	if err != nil {
		return report{}, err
	}
	rep := tally(append(plain, traced...))
	perLayer(rep.Metrics, plain, traced)
	return rep, nil
}

// profiled runs one instance under a CPU profile of the whole process
// and records the profile by layer and the runtime's counters.
func profiled(w workload, e env) (instance, error) {
	var prof bytes.Buffer
	rt0 := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return instance{}, fmt.Errorf("cpu profile: %w", err)
	}
	in := w.instance(e)
	pprof.StopCPUProfile()
	in.runtime = readRuntime().sub(rt0)
	var err error
	in.profile, err = leafCPU(prof.Bytes())
	return in, err
}

// runtimeStats are the Go runtime's own cumulative counters.
type runtimeStats struct {
	gcCPU, usedCPU float64 // seconds: GC, and everything but idle
	autoGCs        uint64  // GC cycles the runtime started itself
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/cycles/automatic:gc-cycles",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{
		gcCPU:   s[0].Value.Float64(),
		usedCPU: s[1].Value.Float64() - s[2].Value.Float64(),
		autoGCs: s[3].Value.Uint64(),
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{gcCPU: a.gcCPU - b.gcCPU, usedCPU: a.usedCPU - b.usedCPU, autoGCs: a.autoGCs - b.autoGCs}
}

func (a runtimeStats) add(b runtimeStats) runtimeStats {
	return runtimeStats{gcCPU: a.gcCPU + b.gcCPU, usedCPU: a.usedCPU + b.usedCPU, autoGCs: a.autoGCs + b.autoGCs}
}

// perLayer fills m with the per-layer metrics. Work counters come from
// the last traced instance (they repeat exactly for a seed); CPU shares
// and per-unit costs cover the whole traced pass; set-up phases and the
// tracing overhead compare against the plain pass. A layer the workload
// does not exercise, or whose counters its API does not export, reports
// 0.
func perLayer(m map[string]metric, plain, traced []instance) {
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	c := traced[len(traced)-1].counts

	cpu := map[string]int64{}
	var totalCPU int64
	var rt runtimeStats
	for _, in := range traced {
		for l, ns := range in.profile {
			cpu[l] += ns
			totalCPU += ns
		}
		rt = rt.add(in.runtime)
	}
	frac := func(layer string) float64 {
		if totalCPU == 0 {
			if layer == "other" {
				return 1
			}
			return 0
		}
		return float64(cpu[layer]) / float64(totalCPU)
	}
	for _, l := range layers {
		put(l+".cpu_frac", "frac", frac(l))
	}

	var events, sent, allocBytes uint64
	var arrivals, completed int64
	var shardCPU, shardCap time.Duration
	for _, in := range traced {
		events += in.counts.events
		sent += in.counts.sent
		arrivals += in.counts.arrivals
		completed += in.completed
		allocBytes += in.bytes
		shardCPU += in.counts.cpu
		shardCap += in.counts.wall * time.Duration(in.counts.parts)
	}
	// Profile CPU time, at the reference speed of the traced pass.
	var cals []float64
	for _, in := range traced {
		cals = append(cals, in.calibration.Seconds())
	}
	toRef := refCalibration.Seconds() / median(cals)
	perUnit := func(layer string, n float64) float64 { return ratio(float64(cpu[layer])*toRef, n) }

	put("sim.events", "count", float64(c.events))
	put("sim.cancelled", "count", float64(c.cancelled))
	useful := 0.0 // without a probe, cancellations are not observable
	if c.probed {
		useful = ratio(float64(c.events), float64(c.events+c.cancelled))
	}
	put("sim.useful_frac", "frac", useful)
	put("sim.pending_max", "count", float64(c.pendingMax))
	put("sim.ns_per_event", "ns", perUnit("sim", float64(events)))

	put("netsim.sent", "count", float64(c.sent))
	put("netsim.delivered", "count", float64(c.delivered))
	put("netsim.dropped", "count", float64(c.dropped))
	put("netsim.bytes", "B", float64(c.bytes))
	put("netsim.delivered_frac", "frac", ratio(float64(c.delivered), float64(c.sent)))
	put("netsim.ns_per_packet", "ns", perUnit("netsim", float64(sent)))

	put("myrinet.coll_sent", "count", float64(c.collSent))
	put("myrinet.coll_recvd", "count", float64(c.collRecvd))
	put("myrinet.coll_resent", "count", float64(c.collResent))
	put("myrinet.nacks_sent", "count", float64(c.nacksSent))
	put("myrinet.stale_coll", "count", float64(c.staleColl))
	put("myrinet.data_sent", "count", float64(c.dataSent))
	put("myrinet.retransmits", "count", float64(c.retransmits))
	put("myrinet.useful_frac", "frac", ratio(float64(c.collRecvd-c.staleColl), float64(c.collRecvd)))

	put("elan.rdmas_sent", "count", float64(c.rdmasSent))
	put("elan.chains_run", "count", float64(c.chainsRun))

	put("core.ns_per_arrival", "ns", perUnit("core", float64(arrivals)))

	put("comm.installs", "count", float64(c.installs))
	put("comm.queued", "count", float64(c.queued))
	put("comm.slot_high_water", "count", float64(c.slotHighWater))
	put("comm.failed_tenants", "count", float64(c.failedTenants))
	put("comm.evictions", "count", float64(c.evictions))

	put("shard.windows", "count", float64(c.windows))
	put("shard.tokens", "count", float64(c.tokens))
	put("shard.events_per_window", "count", ratio(float64(c.events), float64(c.windows)))
	put("shard.cpu_util", "frac", ratio(shardCPU.Seconds(), shardCap.Seconds()))

	put("runtime.gc_cpu_frac", "frac", ratio(rt.gcCPU, rt.usedCPU))
	put("runtime.gc_cycles", "count", ratio(float64(rt.autoGCs), float64(len(traced))))
	put("runtime.bytes_per_op", "B", ratio(float64(allocBytes), float64(completed)))

	var clusters, installs []float64
	for _, in := range plain {
		clusters = append(clusters, in.atRef(in.cluster))
		installs = append(installs, in.atRef(in.install))
	}
	put("setup.cluster_s", "s", median(clusters))
	put("setup.install_s", "s", median(installs))
	put("trace.overhead_frac", "frac", ratio(median(runPerOp(traced)), median(runPerOp(plain)))-1)
}

// runPerOp is each instance's run-phase CPU time per completed
// rank-operation, at the reference speed.
func runPerOp(ins []instance) []float64 {
	var out []float64
	for _, in := range ins {
		out = append(out, ratio(in.atRef(in.run), float64(in.completed)))
	}
	return out
}
