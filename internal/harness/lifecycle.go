package harness

import (
	"fmt"
	"sort"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/comm"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/netsim"
	"nicbarrier/internal/sim"
)

// The group-lifecycle experiment family measures what the admission
// controller and teardown path cost: tenants churning through
// arrive/run/depart cycles on a slot-limited cluster (group-churn),
// the price of swapping a live group's membership (reconfigure-cost),
// and what one tenant's loss recovery does to clean neighbors on shared
// nodes (faults-victim-tenant).

// registerLifecycleScenarios adds the family to the scenario registry.
func registerLifecycleScenarios() {
	RegisterScenario(Scenario{ID: "group-churn",
		Title: "Tenant churn under the queueing admission policy, both interconnects", Figure: GroupChurn})
	RegisterScenario(Scenario{ID: "reconfigure-cost",
		Title: "Cost of reconfiguring a group's membership (install-new/uninstall-old)", Figure: ReconfigureCost})
	RegisterScenario(Scenario{ID: "faults-victim-tenant",
		Title: "One tenant under every-Nth loss: victim recovery vs bystander interference", Figure: FaultVictimTenant})
}

// churnClusterNodes is the cluster the churn sweep oversubscribes; small
// on purpose, so random tenant placement stacks groups deep enough on
// individual NICs to exhaust their slots.
const churnClusterNodes = 16

// churnSpecFor builds the sweep's churn shape for one tenant count.
func churnSpecFor(cfg Config, tenants int) comm.ChurnSpec {
	return comm.ChurnSpec{
		Tenants:          tenants,
		OpsPerTenant:     8,
		GroupSizeMin:     2,
		GroupSizeMax:     5,
		MeanArrivalGapUS: 2,
		ReconfigureEvery: 4,
		Policy:           comm.AdmitQueue,
		ChargeSetupCosts: true,
		Seed:             cfg.Seed ^ 0xc52a<<16 ^ uint64(tenants),
	}
}

// MeasureChurnPoint runs one churn data point on prof's testbed.
func MeasureChurnPoint(cfg Config, prof hwprofile.Profile, tenants int) comm.ChurnResult {
	c := comm.NewCluster(sim.NewEngine(), prof, churnClusterNodes, nil, nil)
	res, err := comm.RunChurn(c, churnSpecFor(cfg, tenants))
	if err != nil {
		panic(fmt.Sprintf("harness: churn point (%T, T=%d): %v", prof, tenants, err))
	}
	return res
}

// GroupChurn sweeps tenant count on a 16-node cluster under the
// queueing admission policy: cumulative installs far exceed the per-NIC
// slot count, so the curve only exists because teardown reclaims slots
// and the queue serves deferred installs. Reported per backend:
// aggregate throughput and the p95 wait of queued installs.
func GroupChurn(cfg Config) Figure {
	tenants := []int{8, 16, 32}
	type point struct{ kops, waitP95 float64 }
	measure := func(prof hwprofile.Profile) []point {
		pts := make([]point, len(tenants))
		run := func(i int) {
			res := MeasureChurnPoint(cfg, prof, tenants[i])
			pts[i] = point{kops: res.AggOpsPerSec / 1e3, waitP95: res.QueueWaitP95US}
		}
		forEach(cfg, len(tenants), run)
		return pts
	}
	myri := measure(hwprofile.LANaiXPCluster())
	quad := measure(hwprofile.Elan3Cluster())
	series := func(name, unit string, pts []point, val func(point) float64) Series {
		s := Series{Name: name, Unit: unit}
		for i, p := range pts {
			s.Points = append(s.Points, Point{N: tenants[i], LatencyUS: val(p)})
		}
		return s
	}
	return Figure{
		ID:     "group-churn",
		Title:  fmt.Sprintf("Tenant churn over %d nodes, queueing admission, install/uninstall costs charged", churnClusterNodes),
		XLabel: "Tenants over the run",
		YLabel: "Throughput / queue wait",
		Series: []Series{
			series("Myrinet-kops", "kops/s", myri, func(p point) float64 { return p.kops }),
			series("Quadrics-kops", "kops/s", quad, func(p point) float64 { return p.kops }),
			series("Myrinet-wait-p95", "sim_us", myri, func(p point) float64 { return p.waitP95 }),
			series("Quadrics-wait-p95", "sim_us", quad, func(p point) float64 { return p.waitP95 }),
		},
		Notes: []string{
			"tenants arrive on a Poisson process, run 8 barriers, depart (every 4th reconfigures halfway);",
			"installs beyond a NIC's slots queue FIFO and are served as departures free slots",
			"wait-p95 is how long the 95th-percentile deferred install waited for capacity",
		},
	}
}

// MeasureReconfigure measures one reconfiguration data point: a group of
// n ranks runs to steady state, then swaps to a disjoint membership; the
// swap cost is the gap from the last pre-swap completion to the first
// post-swap completion (uninstall + install charges + the first barrier
// on cold NICs), reported next to the steady per-barrier latency.
func MeasureReconfigure(cfg Config, prof hwprofile.Profile, n int) (swapUS, steadyUS float64) {
	c := comm.NewCluster(sim.NewEngine(), prof, 2*n, nil, nil)
	c.SetAdmission(comm.AdmissionConfig{ChargeSetupCosts: true})
	perm := permutedIDs(cfg, 2*n, 2*n, 0x9ec0|uint64(n))
	g, err := c.NewGroup(comm.GroupConfig{
		Members:       perm[:n],
		Kind:          comm.OpBarrier,
		Algorithm:     barrier.Dissemination,
		MyrinetScheme: myrinet.SchemeCollective,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: reconfigure point (n=%d): %v", n, err))
	}
	warmup, iters := cfg.itersFor(n)
	if warmup < 1 {
		warmup = 1
	}
	done := g.Run(warmup + iters)
	steadyUS = done[warmup+iters-1].Sub(done[warmup-1]).Micros() / float64(iters)
	last := done[warmup+iters-1]
	g.Reset()
	if err := g.Reconfigure(perm[n : 2*n]); err != nil {
		panic(fmt.Sprintf("harness: reconfigure swap (n=%d): %v", n, err))
	}
	first := g.Run(1)[0]
	swapUS = first.Sub(last).Micros()
	return swapUS, steadyUS
}

// ReconfigureCost sweeps group size for the membership swap on both
// backends: the swap pays the modeled uninstall cost on the old members,
// the install cost on the new ones, and a first barrier whose NIC state
// is cold — against the steady-state barrier as the reference line.
func ReconfigureCost(cfg Config) Figure {
	sizes := []int{4, 8, 16}
	type point struct{ swap, steady float64 }
	measure := func(prof hwprofile.Profile) []point {
		pts := make([]point, len(sizes))
		forEach(cfg, len(sizes), func(i int) {
			swap, steady := MeasureReconfigure(cfg, prof, sizes[i])
			pts[i] = point{swap, steady}
		})
		return pts
	}
	myri := measure(hwprofile.LANaiXPCluster())
	quad := measure(hwprofile.Elan3Cluster())
	series := func(name string, pts []point, val func(point) float64) Series {
		s := Series{Name: name}
		for i, p := range pts {
			s.Points = append(s.Points, Point{N: sizes[i], LatencyUS: val(p)})
		}
		return s
	}
	return Figure{
		ID:     "reconfigure-cost",
		Title:  "Membership swap (install-new/handoff/uninstall-old) vs steady barrier",
		XLabel: "Group size (ranks)",
		YLabel: "Latency",
		Series: []Series{
			series("Myrinet-swap", myri, func(p point) float64 { return p.swap }),
			series("Myrinet-steady", myri, func(p point) float64 { return p.steady }),
			series("Quadrics-swap", quad, func(p point) float64 { return p.swap }),
			series("Quadrics-steady", quad, func(p point) float64 { return p.steady }),
		},
		Notes: []string{
			"swap = last pre-swap completion to first post-swap completion: teardown charge on the",
			"old members, install charge on the new, plus the first barrier on cold NIC state",
			"the bit-vector records assume fixed membership, so the honest swap is a reinstall",
		},
	}
}

// victimOps is the per-tenant operation count of the victim experiment.
const victimOps = 40

// victimStats is one tenant's per-op latency summary in the victim
// experiment.
type victimStats struct {
	meanUS, p95US float64
}

// MeasureVictimTenant runs the shared-node victim layout under an
// every-Nth drop scoped to the victim group (dropNth 0 = clean run) and
// returns the victim's and the worst bystander's per-op latency stats.
func MeasureVictimTenant(cfg Config, dropNth int) (victim, bystander victimStats) {
	var plan netsim.Impairment
	if dropNth > 0 {
		rule := fault.DropEveryNth(dropNth)
		rule.Match.Groups = fault.Groups(1) // the victim is the first group installed
		rule.Match.Kinds = fault.Kinds("barrier-coll")
		plan = fault.NewPlan(faultSeed(cfg, 0x71c<<8|uint64(dropNth)), rule)
	}
	c := comm.NewCluster(sim.NewEngine(), hwprofile.LANaiXPCluster(), 8, nil, plan)
	mk := func(members ...int) *comm.Group {
		g, err := c.NewGroup(comm.GroupConfig{
			Members:       members,
			Kind:          comm.OpBarrier,
			Algorithm:     barrier.Dissemination,
			MyrinetScheme: myrinet.SchemeCollective,
		})
		if err != nil {
			panic(fmt.Sprintf("harness: victim layout: %v", err))
		}
		return g
	}
	vg := mk(0, 1, 2, 3)  // group 1: the fault's target
	byA := mk(0, 1, 4, 5) // group 2: shares nodes 0,1 with the victim
	byB := mk(2, 3, 6, 7) // group 3: shares nodes 2,3
	for _, g := range []*comm.Group{vg, byA, byB} {
		g.Launch(victimOps)
	}
	c.DriveAll()
	stats := func(g *comm.Group) victimStats {
		done := g.DoneAt()
		lats := make([]float64, len(done))
		var sum float64
		prev := sim.Time(0)
		for i, at := range done {
			lats[i] = at.Sub(prev).Micros()
			sum += lats[i]
			prev = at
		}
		sort.Float64s(lats)
		return victimStats{
			meanUS: sum / float64(len(lats)),
			p95US:  lats[(len(lats)*95+99)/100-1],
		}
	}
	victim = stats(vg)
	bystander = stats(byA)
	if b := stats(byB); b.meanUS > bystander.meanUS {
		bystander = b
	}
	return victim, bystander
}

// FaultVictimTenant puts one tenant under deterministic every-Nth loss
// while its neighbors — clean tenants sharing its nodes — run the same
// stream: the victim pays NACK-timeout recovery, the bystanders pay only
// the firmware-level interference of the victim's recovery traffic on
// the shared NICs. X is the drop period (every Nth victim packet lost;
// 0 = clean reference).
func FaultVictimTenant(cfg Config) Figure {
	periods := []int{0, 32, 16, 8, 4}
	type point struct{ victim, bystander victimStats }
	pts := make([]point, len(periods))
	forEach(cfg, len(periods), func(i int) {
		v, b := MeasureVictimTenant(cfg, periods[i])
		pts[i] = point{v, b}
	})
	series := func(name string, val func(point) float64) Series {
		s := Series{Name: name}
		for i, p := range pts {
			s.Points = append(s.Points, Point{N: periods[i], LatencyUS: val(p)})
		}
		return s
	}
	return Figure{
		ID:     "faults-victim-tenant",
		Title:  "Victim tenant under every-Nth loss vs clean bystanders on shared nodes, 8-node Myrinet",
		XLabel: "Drop period N (0 = clean)",
		YLabel: "Per-op latency",
		Series: []Series{
			series("Victim-mean", func(p point) float64 { return p.victim.meanUS }),
			series("Victim-p95", func(p point) float64 { return p.victim.p95US }),
			series("Bystander-mean", func(p point) float64 { return p.bystander.meanUS }),
			series("Bystander-p95", func(p point) float64 { return p.bystander.p95US }),
		},
		Notes: []string{
			"three size-4 groups on 8 nodes: the victim {0,1,2,3}, bystanders {0,1,4,5} and {2,3,6,7};",
			"the drop rule matches only the victim's group ID on barrier-coll packets",
			"victim recovery rides the NACK timeout (mean climbs with drop frequency); bystanders",
			"move only by the shared-NIC firmware interference of the victim's recovery traffic",
			"per-flow every-Nth counters advance in lockstep, so drops bunch into whole rounds —",
			"p95 knees once more than 5% of operations catch a recovery round",
		},
	}
}
