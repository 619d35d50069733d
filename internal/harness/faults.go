package harness

import (
	"fmt"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/sim"
)

// The fault-sweep experiment family measures barrier latency under
// injected network impairments — the reliability story the paper argues
// qualitatively (Myrinet's MCP must recover from loss in firmware,
// Quadrics never sees it) turned into curves.
//
// Every data point builds a fresh cluster and a fresh fault.Plan (plans
// are stateful), so sweeps stay independent, deterministic per seed, and
// safe to fan out over the worker pool.

// registerFaultScenarios adds the fault-sweep family to the scenario
// registry; called from the experiments init so registration order
// matches the evaluation's presentation order.
func registerFaultScenarios() {
	RegisterScenario(Scenario{ID: "faults",
		Title: "Barrier latency vs random loss rate (Myrinet recovers, Quadrics flat)", Figure: FaultLossSweep})
	RegisterScenario(Scenario{ID: "faults-burst",
		Title: "Barrier latency vs Gilbert–Elliott burst length at fixed loss", Figure: FaultBurstSweep})
	RegisterScenario(Scenario{ID: "faults-jitter",
		Title: "Barrier latency vs per-packet jitter (reaches both interconnects)", Figure: FaultJitterSweep})
}

// faultSeed derives the plan seed for one data point so that points are
// independent but reproducible.
func faultSeed(cfg Config, salt uint64) uint64 {
	return cfg.Seed ^ 0xfa17<<32 ^ salt
}

// faultPoint measures p under a fresh plan of rules (none: fault-free)
// seeded by salt, its ranks placed with the family's salt tag.
func faultPoint(cfg Config, p BarrierPoint, tag uint64, rules []fault.Rule, salt uint64) float64 {
	p.Salt |= tag
	if len(rules) > 0 {
		p.Faults = fault.NewPlan(faultSeed(cfg, salt), rules...)
	}
	return MeasureBarrier(cfg, p)
}

// myrinetFaulted and quadricsFaulted are the family's 16-node points:
// the NIC collective barrier on LANai-XP, the chained-RDMA barrier on
// Elan3. Quadrics strips loss-type effects (hardware reliability), so
// loss-only rule sets leave its latency untouched.
func myrinetFaulted(cfg Config, alg barrier.Algorithm, rules []fault.Rule, salt uint64) float64 {
	p := MyrinetPoint(hwprofile.LANaiXPCluster(), 16, 16, myrinet.SchemeCollective, alg)
	return faultPoint(cfg, p, 0xf000, rules, salt)
}

func quadricsFaulted(cfg Config, rules []fault.Rule, salt uint64) float64 {
	p := ElanPoint(16, 16, elan.SchemeChained, barrier.Dissemination)
	return faultPoint(cfg, p, 0xf900, rules, salt)
}

// FaultLossSweep sweeps random loss rate (percent) at a fixed cluster
// size: the Myrinet collective barrier absorbs loss through
// receiver-driven NACK retransmission (latency climbs with the NACK
// timeout), while Quadrics' hardware reliability makes its curve exactly
// flat under a loss-only plan.
func FaultLossSweep(cfg Config) Figure {
	const size = 16
	rates := []int{0, 1, 2, 5, 10, 20}
	rulesFor := func(pct int) []fault.Rule {
		if pct == 0 {
			return nil
		}
		return []fault.Rule{fault.Loss(float64(pct) / 100)}
	}
	myri := func(alg barrier.Algorithm) Measure {
		return func(pct int) float64 {
			return myrinetFaulted(cfg, alg, rulesFor(pct), uint64(pct))
		}
	}
	quad := func(pct int) float64 {
		return quadricsFaulted(cfg, rulesFor(pct), uint64(pct))
	}
	return Figure{
		ID:     "faults",
		Title:  fmt.Sprintf("Barrier latency vs random loss rate, %d nodes", size),
		XLabel: "Loss rate (%)",
		YLabel: "Latency",
		Series: []Series{
			sweep(cfg, "Myrinet-DS", rates, myri(barrier.Dissemination)),
			sweep(cfg, "Myrinet-PE", rates, myri(barrier.PairwiseExchange)),
			sweep(cfg, "Quadrics-DS", rates, quad),
		},
		Notes: []string{
			"Myrinet recovers lost notifications via receiver-driven NACK retransmission;",
			"the mean is dominated by the NACK timeout once most barriers see a loss.",
			"Quadrics provides hardware reliability: a loss-only plan cannot touch it (flat curve).",
		},
	}
}

// FaultBurstSweep sweeps the mean burst length of a Gilbert–Elliott
// channel at a fixed overall loss rate: bursty loss concentrates drops in
// fewer barriers, so each recovery round re-requests more messages at
// once.
func FaultBurstSweep(cfg Config) Figure {
	const size = 16
	const lossRate = 0.05
	bursts := []int{1, 2, 4, 8, 16}
	rulesFor := func(b int) []fault.Rule {
		return []fault.Rule{fault.BurstLoss(lossRate, float64(b))}
	}
	return Figure{
		ID:     "faults-burst",
		Title:  fmt.Sprintf("Barrier latency vs mean burst length (Gilbert–Elliott, %.0f%% loss), %d nodes", lossRate*100, size),
		XLabel: "Mean burst length (packets)",
		YLabel: "Latency",
		Series: []Series{
			sweep(cfg, "Myrinet-DS", bursts, func(b int) float64 {
				return myrinetFaulted(cfg, barrier.Dissemination, rulesFor(b), uint64(b))
			}),
			sweep(cfg, "Quadrics-DS", bursts, func(b int) float64 {
				return quadricsFaulted(cfg, rulesFor(b), uint64(b))
			}),
		},
		Notes: []string{
			"same overall loss rate at every point; only the burstiness changes",
			"Quadrics stays flat: burst loss is still loss, which hardware reliability strips",
		},
	}
}

// FaultJitterSweep sweeps uniform per-packet jitter on every packet: a
// latency-type impairment, so it reaches both interconnects (hardware
// reliability does not protect Quadrics from a slow network, only from a
// lossy one).
func FaultJitterSweep(cfg Config) Figure {
	const size = 16
	jitters := []int{0, 2, 5, 10, 20}
	rulesFor := func(us int) []fault.Rule {
		if us == 0 {
			return nil
		}
		return []fault.Rule{fault.Latency(0, sim.Micros(float64(us)))}
	}
	return Figure{
		ID:     "faults-jitter",
		Title:  fmt.Sprintf("Barrier latency vs per-packet jitter, %d nodes", size),
		XLabel: "Jitter span (us)",
		YLabel: "Latency",
		Series: []Series{
			sweep(cfg, "Myrinet-DS", jitters, func(us int) float64 {
				return myrinetFaulted(cfg, barrier.Dissemination, rulesFor(us), uint64(us))
			}),
			sweep(cfg, "Quadrics-DS", jitters, func(us int) float64 {
				return quadricsFaulted(cfg, rulesFor(us), uint64(us))
			}),
		},
		Notes: []string{
			"jitter delays packets on both interconnects: delay-type faults pass through",
			"the Quadrics DelayOnly filter, loss-type faults do not",
		},
	}
}
