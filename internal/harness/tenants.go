package harness

import (
	"fmt"

	"nicbarrier/internal/comm"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/sim"
)

// The multi-tenant experiment family measures the property the paper's
// per-group NIC queues exist for but its evaluation never exercises:
// many process groups running collectives *simultaneously* on one
// cluster. Each data point builds a 64-node Myrinet cluster, carves it
// into T tenant groups via internal/comm, runs every tenant's operation
// stream concurrently, and reports aggregate throughput (operations per
// simulated second), per-tenant latency percentiles, and Jain fairness.

// tenantClusterNodes is the fixed cluster the tenant sweeps carve up.
const tenantClusterNodes = 64

// tenantCounts is the sweep: 1 tenant (the classic single-communicator
// loop) up to 32 tenants of 2 nodes each.
var tenantCounts = []int{1, 2, 4, 8, 16, 32}

// tenantOps maps the harness config to a per-tenant operation count,
// reusing the big-cluster iteration cap so paper-fidelity sweeps stay
// tractable (32 tenants x 10,000 ops would dominate the suite).
func tenantOps(cfg Config) int {
	_, iters := cfg.itersFor(2 * tenantClusterNodes)
	return iters
}

// MeasureTenants runs one multi-tenant data point: T tenants partitioning
// a 64-node LANai-XP cluster into even disjoint groups, every tenant
// issuing back-to-back barriers over the NIC-collective protocol.
func MeasureTenants(cfg Config, tenants int, spec comm.WorkloadSpec) comm.WorkloadResult {
	c := comm.NewCluster(sim.NewEngine(), hwprofile.LANaiXPCluster(), tenantClusterNodes, nil, nil)
	spec.Tenants = tenants
	if spec.OpsPerTenant == 0 {
		spec.OpsPerTenant = tenantOps(cfg)
	}
	spec.Seed = cfg.Seed ^ 0x7e0a<<16 ^ uint64(tenants)
	res, err := comm.RunWorkload(c, spec)
	if err != nil {
		panic(fmt.Sprintf("harness: multi-tenant point (T=%d): %v", tenants, err))
	}
	return res
}

// tenantPoint summarizes one sweep point for the figure's series.
type tenantPoint struct {
	aggKops  float64 // aggregate throughput, kops per simulated second
	p50Mean  float64 // mean of per-tenant p50 latencies
	p99Worst float64 // worst tenant p99 latency
	fairness float64 // Jain index over tenant throughputs
}

func tenantSweep(cfg Config, spec comm.WorkloadSpec) []tenantPoint {
	pts := make([]tenantPoint, len(tenantCounts))
	measure := func(i int) {
		res := MeasureTenants(cfg, tenantCounts[i], spec)
		var p50Sum, p99 float64
		for _, tr := range res.Tenants {
			p50Sum += tr.P50US
			if tr.P99US > p99 {
				p99 = tr.P99US
			}
		}
		pts[i] = tenantPoint{
			aggKops:  res.AggOpsPerSec / 1e3,
			p50Mean:  p50Sum / float64(len(res.Tenants)),
			p99Worst: p99,
			fairness: res.Fairness,
		}
	}
	forEach(cfg, len(tenantCounts), measure)
	return pts
}

// tenantFigure builds one multi-tenant sweep figure: the four series
// (throughput, p50, worst p99, fairness) are shared by every scenario
// in the family, so their names and units — which the committed
// baseline's metric names embed — live in exactly one place.
func tenantFigure(cfg Config, id, title string, spec comm.WorkloadSpec, notes []string) Figure {
	pts := tenantSweep(cfg, spec)
	series := func(name, unit string, val func(tenantPoint) float64) Series {
		s := Series{Name: name, Unit: unit}
		for i, tp := range pts {
			s.Points = append(s.Points, Point{N: tenantCounts[i], LatencyUS: val(tp)})
		}
		return s
	}
	return Figure{
		ID:     id,
		Title:  title,
		XLabel: "Tenant groups",
		YLabel: "Throughput / latency / fairness",
		Series: []Series{
			series("Agg-kops-per-sec", "kops/s", func(tp tenantPoint) float64 { return tp.aggKops }),
			series("Tenant-p50", "sim_us", func(tp tenantPoint) float64 { return tp.p50Mean }),
			series("Tenant-p99-worst", "sim_us", func(tp tenantPoint) float64 { return tp.p99Worst }),
			series("Fairness-Jain", "jain", func(tp tenantPoint) float64 { return tp.fairness }),
		},
		Notes: notes,
	}
}

// MultiTenant reproduces the throughput story: as the 64-node cluster is
// carved into more concurrent groups, aggregate operations per second
// climb (smaller groups, more independent streams, per-group NIC queues
// keeping them from serializing behind each other), per-tenant latency
// falls, and service stays fair.
func MultiTenant(cfg Config) Figure {
	return tenantFigure(cfg, "multi-tenant",
		"Concurrent tenant groups over a 64-node Myrinet LANai-XP cluster (barriers, back-to-back)",
		comm.WorkloadSpec{Mix: comm.OpMix{Barrier: 1}},
		[]string{
			"each tenant is one process group with its own NIC group-queue slot, bit vector and sequence space",
			"groups partition the cluster evenly and disjointly; every tenant issues back-to-back barriers",
			"aggregate ops/sec rises with tenant count: per-group queues let small groups run concurrently",
		})
}

// MultiTenantMixed runs the same sweep with an operation mix (barriers,
// broadcasts, allreduces) under a closed loop with think time — the
// heavy-concurrent-traffic shape of the ROADMAP's north star rather
// than a synchronized benchmark loop.
func MultiTenantMixed(cfg Config) Figure {
	return tenantFigure(cfg, "multi-tenant-mixed",
		"Mixed collective workload (2:1:1 barrier:broadcast:allreduce), closed loop, 5us mean think",
		comm.WorkloadSpec{
			Mix:     comm.OpMix{Barrier: 2, Broadcast: 1, Allreduce: 1},
			Arrival: comm.ArrivalSpec{Kind: comm.ClosedLoop, MeanGapUS: 5},
		},
		[]string{
			"tenants are assigned an operation kind by mix weight; allreduce results are verified per run",
			"think time models compute phases between collectives; latency is eligibility-to-completion",
		})
}

// registerTenantScenarios adds the multi-tenant family to the registry.
func registerTenantScenarios() {
	RegisterScenario(Scenario{ID: "multi-tenant",
		Title: "Multi-tenant throughput: 1-32 concurrent groups over 64 nodes", Figure: MultiTenant})
	RegisterScenario(Scenario{ID: "multi-tenant-mixed",
		Title: "Multi-tenant mixed op workload under closed-loop think time", Figure: MultiTenantMixed})
}
