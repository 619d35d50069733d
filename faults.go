package nicbarrier

import (
	"fmt"

	"nicbarrier/internal/fault"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
)

// Fault is one declarative impairment for Config.Faults, built with the
// Fault* constructors and narrowed with the chainable modifiers:
//
//	cfg.Faults = []nicbarrier.Fault{
//		nicbarrier.FaultRandomLoss(0.10),
//		nicbarrier.FaultPartition(3, 7).Between(50, 200),
//		nicbarrier.FaultDelay(2, 3).OnKinds("barrier-coll"),
//	}
//
// Faults compose: every matching fault applies to a packet (discards win,
// delays add). All randomness derives from Config.Seed, so faulted runs
// are reproducible. On Quadrics, hardware reliability strips loss-type
// faults (drop, block, crash) and only latency-type faults take effect;
// on Myrinet the MCP's retransmission machinery is what recovers, and the
// recovery traffic shows up in Result.Retransmissions.
type Fault struct {
	rule fault.Rule
	// err carries a constructor-time parameter error so it surfaces as a
	// Config validation error (not a panic) from MeasureBarrier.
	err error
}

// FaultRandomLoss drops packets independently with probability rate.
func FaultRandomLoss(rate float64) Fault {
	return Fault{rule: fault.Loss(rate)}
}

// FaultEveryNth deterministically drops every n-th matching packet.
func FaultEveryNth(n int) Fault {
	return Fault{rule: fault.DropEveryNth(n)}
}

// FaultBurstLoss drops packets from a Gilbert–Elliott two-state channel
// with the given overall loss rate and mean burst length in packets.
// Out-of-range parameters surface as a Config validation error.
func FaultBurstLoss(rate, meanBurstLen float64) Fault {
	if err := fault.BurstParams(rate, meanBurstLen); err != nil {
		return Fault{err: err}
	}
	return Fault{rule: fault.BurstLoss(rate, meanBurstLen)}
}

// FaultDelay adds fixedUS microseconds plus uniform jitter in [0,
// jitterUS) to every matching packet.
func FaultDelay(fixedUS, jitterUS float64) Fault {
	return Fault{rule: fault.Latency(sim.Micros(fixedUS), sim.Micros(jitterUS))}
}

// FaultThrottle charges matching packets the serialization time of a
// limitMBps link in excess of the interconnect's line rate (resolved when
// the measurement runs).
func FaultThrottle(limitMBps float64) Fault {
	// LineRateMBps 0 is patched to the interconnect's rate at compile time.
	return Fault{rule: fault.Bandwidth(limitMBps, 0)}
}

// FaultPartition blocks both directions between nodes a and b (per-hop
// evaluation: in-flight packets die at the first hop inside the window).
// Combine with Between for a healing partition.
func FaultPartition(a, b int) Fault {
	return Fault{rule: fault.Partition(a, b, fault.Window{})}
}

// FaultBlockPort discards everything node sends or receives; reject
// selects reject semantics (counted separately in the network counters)
// over silent drops.
func FaultBlockPort(node int, reject bool) Fault {
	return Fault{rule: fault.BlockPort(node, reject, fault.Window{})}
}

// FaultCrash silently drops everything node sends or receives. Without a
// Between window the node never recovers and any barrier it joins will
// deadlock — bound it for recovery experiments.
func FaultCrash(node int) Fault {
	return Fault{rule: fault.Crash(node, fault.Window{})}
}

// FaultSlowNIC adds perPacketUS microseconds of processing delay to every
// packet the node injects.
func FaultSlowNIC(node int, perPacketUS float64) Fault {
	return Fault{rule: fault.SlowNIC(node, sim.Micros(perPacketUS))}
}

// Between limits the fault to virtual times [fromUS, toUS) microseconds;
// toUS <= 0 means no end.
func (f Fault) Between(fromUS, toUS float64) Fault {
	f.rule.Window = fault.Between(fromUS, toUS)
	return f
}

// OnKinds limits the fault to the given packet kinds (e.g. "data", "ack",
// "barrier-coll", "barrier-nack", "rdma-event").
func (f Fault) OnKinds(kinds ...string) Fault {
	f.rule.Match.Kinds = fault.Kinds(kinds...)
	return f
}

// OnGroups limits the fault to packets carrying one of the given
// process-group IDs (the collective protocol stamps its group ID into
// the static packet; a cluster's first group is ID 1, and ungrouped p2p
// traffic is group 0). This is how a fault targets one tenant's traffic
// on nodes that several groups share.
func (f Fault) OnGroups(groups ...int) Fault {
	f.rule.Match.Groups = fault.Groups(groups...)
	return f
}

// FromNodes limits the fault to packets sent by the given nodes.
func (f Fault) FromNodes(nodes ...int) Fault {
	f.rule.Match.Src = fault.Nodes(nodes...)
	return f
}

// ToNodes limits the fault to packets received by the given nodes.
func (f Fault) ToNodes(nodes ...int) Fault {
	f.rule.Match.Dst = fault.Nodes(nodes...)
	return f
}

// Named overrides the fault's label in diagnostics.
func (f Fault) Named(name string) Fault {
	f.rule.Name = name
	return f
}

// validate rejects parameterizations that could never terminate (total
// loss starves the recovery traffic too) or would corrupt the virtual
// clock (negative delays).
func (f Fault) validate() error {
	if f.err != nil {
		return f.err
	}
	switch e := f.rule.Effect.(type) {
	case nil:
		return fmt.Errorf("zero Fault; use the Fault* constructors")
	case fault.RandomLoss:
		if e.Rate < 0 || e.Rate >= 1 {
			return fmt.Errorf("%s: loss rate %v outside [0,1)", f.rule.Name, e.Rate)
		}
	case *fault.EveryNth:
		if e.N == 1 {
			return fmt.Errorf("%s: every-1st drops 100%% of traffic, which starves recovery", f.rule.Name)
		}
		if e.N < 1 {
			return fmt.Errorf("%s: every-Nth needs n >= 2, got %d", f.rule.Name, e.N)
		}
	case fault.Delay:
		if e.Fixed < 0 || e.Jitter < 0 {
			return fmt.Errorf("%s: negative delay", f.rule.Name)
		}
	case fault.Throttle:
		if e.BandwidthMBps <= 0 {
			return fmt.Errorf("%s: non-positive throttle bandwidth %v", f.rule.Name, e.BandwidthMBps)
		}
	}
	if w := f.rule.Window; w.To != 0 && w.To <= w.From {
		return fmt.Errorf("%s: empty window [%v, %v) — transposed Between arguments?",
			f.rule.Name, w.From, w.To)
	}
	return nil
}

// String implements fmt.Stringer.
func (f Fault) String() string {
	if f.err != nil {
		return fmt.Sprintf("Fault(invalid: %v)", f.err)
	}
	if f.rule.Effect == nil {
		return "Fault(zero)"
	}
	return fmt.Sprintf("Fault(%s)", f.rule.Name)
}

// ValidateFaults returns one human-readable warning per fault that can
// wedge a run forever: blocking faults (crash, partition) whose window
// never closes silence a node or link permanently, so any barrier
// spanning them deadlocks unless the communicator layer runs with an
// operation deadline that detects the stall and evicts the member. An
// empty slice means no fault is indefinitely blocking. Invalid or zero
// Fault values are skipped here — MeasureBarrier rejects them itself.
func ValidateFaults(faults []Fault) []string {
	plan := fault.NewPlan(0)
	for _, f := range faults {
		if f.err != nil || f.rule.Effect == nil {
			continue
		}
		plan.Add(f.rule)
	}
	return plan.Validate()
}

// compileFaults builds the stateful fault.Plan for one measurement run.
// lineRateMBps patches throttle faults that were declared without
// knowledge of the interconnect.
func compileFaults(faults []Fault, seed uint64, lineRateMBps float64) netsim.Impairment {
	if len(faults) == 0 {
		return nil
	}
	plan := fault.NewPlan(seed ^ 0xfa171fe)
	for _, f := range faults {
		if f.rule.Effect == nil {
			panic("nicbarrier: zero Fault value in Config.Faults; use the Fault* constructors")
		}
		r := f.rule
		if th, ok := r.Effect.(fault.Throttle); ok && th.LineRateMBps <= 0 {
			th.LineRateMBps = lineRateMBps
			r.Effect = th
		}
		plan.Add(r)
	}
	return plan
}
