package harness

import (
	"fmt"
	"time"

	"nicbarrier/internal/comm"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/shard"
	"nicbarrier/internal/sim"
)

// The partitioned-simulation experiment family measures the sharded
// parallel core (internal/shard, comm.RunWorkloadSharded) at scales a
// single event loop cannot reach comfortably: 1024 concurrent tenants
// and a barrier sweep toward 65,536 endpoints.
//
// Virtual-time metrics (throughput, fairness, latency) are
// bit-deterministic per (seed, partition count) and gate the perf
// pipeline. Wall-clock metrics are informational — they depend on the
// host — and come in two forms: the raw wall time per partition count,
// and the measured wall-clock speedup over the single-partition run.
// The deterministic "speedup bound" series is the load-balance limit,
// sum(per-shard events) / max(per-shard events): what a perfectly
// parallel host could achieve given how evenly the partitioner spread
// the work. The measured speedup approaches the bound as cores allow;
// on a single-core host it stays near 1 while the bound still proves
// the decomposition is balanced.

const (
	// partTenants is the headline tenant count of the partitioned
	// workload scenario.
	partTenants = 1024
	// partClusterNodes fits 1024 disjoint two-node tenants.
	partClusterNodes = 2048
)

// partCounts is the partition sweep of the 1024-tenant scenario.
var partCounts = []int{1, 2, 4, 8}

// shardScaleParts fixes the shard count of the endpoint sweep.
const shardScaleParts = 4

// partTenantScale maps the measurement config to the tenant scenario's
// size. Test configs smaller than Quick() exercise the same code paths
// at toy scale; quick and paper runs measure the headline 1024-tenant
// configuration.
func partTenantScale(cfg Config) (tenants, nodes int) {
	if cfg.Iters < Quick().Iters {
		return 64, 128
	}
	return partTenants, partClusterNodes
}

// shardScaleSweep maps the measurement config to the endpoint sweep of
// the hierarchical barrier scenario. Quick and paper tiers both reach
// the paper's 65,536-endpoint target: with closed-form routing the
// point costs seconds and O(hosts) memory, where the dense memoized
// route table needed ~11 minutes and ~52 GB of heap.
func shardScaleSweep(cfg Config) []int {
	switch {
	case cfg.Iters >= Quick().Iters:
		return []int{4096, 16384, 65536}
	default:
		return []int{256, 1024}
	}
}

// partOps maps the harness config to a per-tenant operation count,
// reusing the big-cluster cap (1024 tenants x paper iteration counts
// would dominate the suite).
func partOps(cfg Config) int {
	_, iters := cfg.itersFor(64 * 64)
	return iters
}

// partPoint is one partition-count measurement of the 1024-tenant
// workload.
type partPoint struct {
	aggKops  float64       // aggregate throughput, kops per simulated second
	fairness float64       // Jain index over tenant throughputs
	bound    float64       // load-balance speedup bound (deterministic)
	wall     time.Duration // host wall clock of the sharded run
}

// MeasurePartitionedTenants runs the multi-tenant workload once at the
// given partition count: parts replica clusters (1024 tenants over
// 2048-node clusters at quick fidelity and above, a toy size for test
// configs), tenants dealt round-robin, shards running in parallel. The
// returned result is bit-deterministic per (cfg.Seed, parts); the
// wall time is not. Replica construction is excluded from the timed
// region, so the wall series measures the parallel simulation itself.
func MeasurePartitionedTenants(cfg Config, parts int) (comm.WorkloadResult, partPoint) {
	tenants, nodes := partTenantScale(cfg)
	cs := make([]*comm.Cluster, parts)
	for s := range cs {
		cs[s] = comm.NewCluster(sim.NewEngine(), hwprofile.LANaiXPCluster(), nodes, nil, nil)
	}
	spec := comm.WorkloadSpec{
		Tenants:      tenants,
		OpsPerTenant: partOps(cfg),
		Mix:          comm.OpMix{Barrier: 1},
		Seed:         cfg.Seed ^ 0x9a27<<16,
	}
	start := time.Now()
	res, err := comm.RunWorkloadSharded(cs, spec)
	wall := time.Since(start)
	if err != nil {
		panic(fmt.Sprintf("harness: partitioned tenants (P=%d): %v", parts, err))
	}
	var total, slowest uint64
	for _, c := range cs {
		ev := c.Eng.Executed()
		total += ev
		if ev > slowest {
			slowest = ev
		}
	}
	return res, partPoint{
		aggKops:  res.AggOpsPerSec / 1e3,
		fairness: res.Fairness,
		bound:    float64(total) / float64(slowest),
		wall:     wall,
	}
}

// PartitionSweep is the 1024-tenant scenario: the same seeded workload
// at 1, 2, 4 and 8 partitions. Partition counts run sequentially (each
// point is internally parallel across its shards), so the wall-clock
// series is not polluted by concurrent points competing for cores.
func PartitionSweep(cfg Config) Figure {
	pts := make([]partPoint, len(partCounts))
	for i, parts := range partCounts {
		_, pts[i] = MeasurePartitionedTenants(cfg, parts)
	}
	series := func(name, unit string, val func(partPoint) float64) Series {
		s := Series{Name: name, Unit: unit}
		for i, pp := range pts {
			s.Points = append(s.Points, Point{N: partCounts[i], LatencyUS: val(pp)})
		}
		return s
	}
	wall1 := float64(pts[0].wall)
	return Figure{
		ID:     "multi-tenant-1024",
		Title:  "1024 tenants over 2048-node replica shards: partition count vs throughput and speedup",
		XLabel: "Partitions",
		YLabel: "Throughput / fairness / speedup",
		Series: []Series{
			series("Agg-kops-per-sec", "kops/s", func(pp partPoint) float64 { return pp.aggKops }),
			series("Fairness-Jain", "jain", func(pp partPoint) float64 { return pp.fairness }),
			series("Speedup-bound", "x", func(pp partPoint) float64 { return pp.bound }),
			series("Wall-ns", "ns/op", func(pp partPoint) float64 { return float64(pp.wall) }),
			series("Speedup-wall", "speedup", func(pp partPoint) float64 { return wall1 / float64(pp.wall) }),
		},
		Notes: []string{
			"tenants keep identical membership, kind, op count and pacing at every partition count",
			"Speedup-bound is sum(shard events)/max(shard events): deterministic, gates load balance",
			"Speedup-wall is measured wall clock vs 1 partition: informational, approaches the bound with cores",
		},
	}
}

// shardScalePoint is one endpoint-count measurement of the
// hierarchical cross-shard barrier.
type shardScalePoint struct {
	latencyUS   float64 // mean global barrier latency, simulated us
	lookaheadUS float64 // conservative window the run derived
	windows     float64 // lookahead windows executed
	wall        time.Duration
	bytesPerEP  float64 // live-heap growth per endpoint (host-side)
}

// ShardScale is the endpoint sweep: a hierarchical global barrier
// (intra-shard NIC-collective gather, log2(P) inter-shard rounds,
// NIC broadcast release) over 4 shards. Quick and paper sweeps both
// measure 4k, 16k and the paper's 64k target. Virtual-time latency,
// lookahead and window counts are deterministic; wall time and the
// bytes-per-endpoint footprint are informational (host-side). Points
// run sequentially to bound memory (the 64k point holds four 16k-node
// clusters at once).
func ShardScale(cfg Config) Figure {
	sweep := shardScaleSweep(cfg)
	pts := make([]shardScalePoint, len(sweep))
	for i, n := range sweep {
		res := shard.MeasureHierBarrier(shard.HierSpec{
			Nodes:  n,
			Parts:  shardScaleParts,
			Warmup: 1,
			Iters:  2,
			Prof:   hwprofile.LANaiXPCluster(),
		})
		pts[i] = shardScalePoint{
			latencyUS:   res.MeanLatency.Micros(),
			lookaheadUS: res.Lookahead.Micros(),
			windows:     float64(res.Windows),
			wall:        res.WallTime,
			bytesPerEP:  float64(res.MemBytes) / float64(n),
		}
	}
	series := func(name, unit string, val func(shardScalePoint) float64) Series {
		s := Series{Name: name, Unit: unit}
		for i, sp := range pts {
			s.Points = append(s.Points, Point{N: sweep[i], LatencyUS: val(sp)})
		}
		return s
	}
	return Figure{
		ID:     "shard-scale",
		Title:  "Hierarchical cross-shard barrier toward 64k endpoints (4 shards)",
		XLabel: "Endpoints",
		YLabel: "Barrier latency / lookahead / windows",
		Series: []Series{
			series("Hier-barrier-latency", "sim_us", func(sp shardScalePoint) float64 { return sp.latencyUS }),
			series("Lookahead", "sim_us", func(sp shardScalePoint) float64 { return sp.lookaheadUS }),
			series("Windows", "count", func(sp shardScalePoint) float64 { return sp.windows }),
			series("Wall-ns", "ns/op", func(sp shardScalePoint) float64 { return float64(sp.wall) }),
			series("Bytes-per-endpoint", "B/ep", func(sp shardScalePoint) float64 { return sp.bytesPerEP }),
		},
		Notes: []string{
			"each shard is a full-fidelity Myrinet sub-cluster on its own engine; shards sync only through",
			"conservative lookahead windows derived from the topology's minimum cross-partition latency",
			"latency grows with log(shard size) + log(shards): the paper's scaling argument, carried across shards",
		},
	}
}

// registerPartitionScenarios adds the partitioned-simulation family to
// the registry.
func registerPartitionScenarios() {
	RegisterScenario(Scenario{ID: "multi-tenant-1024",
		Title: "1024 tenants on sharded replica clusters, partition sweep 1-8", Figure: PartitionSweep})
	RegisterScenario(Scenario{ID: "shard-scale",
		Title: "Hierarchical cross-shard barrier at 4k-64k endpoints", Figure: ShardScale})
}
