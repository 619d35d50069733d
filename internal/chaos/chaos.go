// Package chaos is the fail-stop survival soak harness: it draws a
// randomized fault schedule from a seed (node crashes — permanent and
// windowed — partitions, burst loss, slow NICs), runs a multi-tenant
// collective workload under that schedule on either backend with
// recovery armed, and checks the survival invariants:
//
//   - no deadlock: every group either completes its full stream or
//     fails terminally with core.ErrOpTimeout — nothing stalls;
//   - evictions are justified: every evicted node was the target of a
//     crash or a partition, never a healthy bystander;
//   - permanently crashed members are dealt with: a group that keeps a
//     dead node in its membership cannot have completed;
//   - allreduce stays exact across evictions, epoch by epoch;
//   - teardown is leak-free: after closing every group and draining,
//     the engine is quiet and every NIC slot is back.
//
// Everything derives from Spec.Seed; a violating seed replays exactly.
package chaos

import (
	"fmt"
	"sort"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/comm"
	"nicbarrier/internal/core"
	"nicbarrier/internal/elan"
	"nicbarrier/internal/fault"
	"nicbarrier/internal/hwprofile"
	"nicbarrier/internal/myrinet"
	"nicbarrier/internal/sim"
)

// Backend selects the simulated interconnect under test.
type Backend int

// Backends.
const (
	Myrinet Backend = iota
	Elan
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case Myrinet:
		return "myrinet"
	case Elan:
		return "quadrics"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// profiles maps each Backend to the testbed it soaks; comm.NewCluster
// picks the interconnect from the profile.
var profiles = map[Backend]hwprofile.Profile{Myrinet: hwprofile.LANaiXPCluster(), Elan: hwprofile.Elan3Cluster()}

// Spec parameterizes one soak run. The zero value is not runnable; use
// the documented defaults via fields left zero where noted.
type Spec struct {
	Backend Backend
	// Nodes is the cluster size (default 16).
	Nodes int
	// Groups is the number of concurrent tenant groups (default 4);
	// OpsPerGroup the collective operations each runs (default 12).
	Groups, OpsPerGroup int
	// Seed drives the entire schedule: memberships, fault kinds,
	// victims and windows.
	Seed uint64
	// MaxCrashes bounds fail-stop crash rules (default 2; at least one
	// is always drawn so every soak exercises the detector). Roughly
	// half are permanent (unbounded window), half windowed.
	MaxCrashes int
	// MaxPartitions bounds windowed two-node partitions (default 1).
	// Partition windows are kept shorter than the suspicion threshold,
	// so they must be survived by retransmit/retry, not eviction.
	MaxPartitions int
	// BurstLoss adds a Gilbert-Elliott burst-loss rule. Myrinet only:
	// Quadrics strips link-level loss (hardware reliability), so the
	// rule would be inert there.
	BurstLoss bool
	// SlowNIC adds a per-packet delay on one healthy node — latency
	// skew that must never be mistaken for a failure.
	SlowNIC bool
}

func (s Spec) withDefaults() Spec {
	if s.Nodes == 0 {
		s.Nodes = 16
	}
	if s.Groups == 0 {
		s.Groups = 4
	}
	if s.OpsPerGroup == 0 {
		s.OpsPerGroup = 12
	}
	if s.MaxCrashes == 0 {
		s.MaxCrashes = 2
	}
	if s.MaxPartitions == 0 {
		s.MaxPartitions = 1
	}
	return s
}

// Report is one soak run's outcome. Violations empty means every
// invariant held.
type Report struct {
	Backend      Backend
	Seed         uint64
	Nodes        int
	Groups       int
	Schedule     string // stable one-line fault summary
	CrashTargets []int  // every crash-rule victim, permanent or windowed
	OpsCompleted int
	FailedGroups int // groups that ended in a terminal op-timeout
	Evictions    int
	Retries      int
	Timeouts     int
	Violations   []string
}

// OK reports whether every invariant held.
func (r Report) OK() bool { return len(r.Violations) == 0 }

// chaosContrib is the deterministic allreduce contribution the checker
// recomputes; max over ranks is exact for any membership size.
func chaosContrib(rank, iter int) int64 { return int64(rank*13 + iter*5 - 3) }

// schedule is the generated fault plan plus the ground truth the
// invariant checker needs (which nodes were actually faulted).
type schedule struct {
	rules     []fault.Rule
	crashed   []int // all crash victims
	permanent map[int]bool
	partEnds  map[int]bool // partition endpoints
}

// genSchedule draws the fault schedule. All windows are in the first
// few thousand simulated microseconds so they overlap the workload.
func genSchedule(rng *sim.RNG, spec Spec) schedule {
	sc := schedule{permanent: map[int]bool{}, partEnds: map[int]bool{}}
	perm := rng.Perm(spec.Nodes)
	ncrash := 1 + rng.Intn(spec.MaxCrashes)
	if ncrash > spec.Nodes/4 {
		ncrash = spec.Nodes / 4 // leave enough survivors to evict onto
	}
	if ncrash < 1 {
		ncrash = 1
	}
	for i := 0; i < ncrash; i++ {
		victim := perm[i]
		sc.crashed = append(sc.crashed, victim)
		if rng.Intn(2) == 0 {
			sc.permanent[victim] = true
			sc.rules = append(sc.rules, fault.Crash(victim, fault.Window{}))
		} else {
			from := float64(rng.Intn(5000))
			dur := 500 + float64(rng.Intn(3000))
			sc.rules = append(sc.rules, fault.Crash(victim, fault.Between(from, from+dur)))
		}
	}
	healthy := perm[ncrash:]
	nparts := rng.Intn(spec.MaxPartitions + 1)
	for i := 0; i < nparts && len(healthy) >= 2; i++ {
		a, b := healthy[0], healthy[1]
		healthy = healthy[2:]
		sc.partEnds[a] = true
		sc.partEnds[b] = true
		from := float64(rng.Intn(4000))
		dur := 100 + float64(rng.Intn(200)) // < SuspectAfter: survived, not evicted
		sc.rules = append(sc.rules, fault.Partition(a, b, fault.Between(from, from+dur)))
	}
	if spec.BurstLoss && spec.Backend == Myrinet {
		sc.rules = append(sc.rules, fault.BurstLoss(0.05+0.10*rng.Float64(), 4))
	}
	if spec.SlowNIC && len(healthy) > 0 {
		sc.rules = append(sc.rules, fault.SlowNIC(healthy[0], sim.Micros(float64(1+rng.Intn(2)))))
	}
	return sc
}

// Soak runs one seeded chaos soak. The returned error covers setup
// problems only; invariant outcomes are in Report.Violations.
func Soak(spec Spec) (Report, error) {
	spec = spec.withDefaults()
	if spec.Nodes < 8 {
		return Report{}, fmt.Errorf("chaos: need at least 8 nodes, have %d", spec.Nodes)
	}
	rng := sim.NewRNG(spec.Seed ^ 0xc4a05c4a05)
	sc := genSchedule(rng, spec)
	rep := Report{
		Backend:      spec.Backend,
		Seed:         spec.Seed,
		Nodes:        spec.Nodes,
		Groups:       spec.Groups,
		Schedule:     fault.Describe(sc.rules),
		CrashTargets: append([]int(nil), sc.crashed...),
	}
	sort.Ints(rep.CrashTargets)

	prof, ok := profiles[spec.Backend]
	if !ok {
		return Report{}, fmt.Errorf("chaos: unknown backend %v", spec.Backend)
	}
	eng := sim.NewEngine()
	c := comm.NewCluster(eng, prof, spec.Nodes, nil, fault.NewPlan(spec.Seed^0xfa17, sc.rules...))
	slotCap := c.SlotsFree(0) // every slot is free before the first install

	rec := comm.RecoveryConfig{
		OpDeadline:     sim.Micros(2000),
		HeartbeatEvery: sim.Micros(100),
		SuspectAfter:   sim.Micros(400),
		Fanout:         len(sc.crashed) + 1, // outlive any subset of victims in one ring
		MaxRetries:     6,
		RetryBackoff:   sim.Micros(150),
	}

	type tenant struct {
		g       *comm.Group
		members []int
	}
	tenants := make([]tenant, 0, spec.Groups)
	maxSize := 6
	if maxSize > spec.Nodes {
		maxSize = spec.Nodes
	}
	for i := 0; i < spec.Groups; i++ {
		size := 3 + rng.Intn(maxSize-2)
		members := rng.Perm(spec.Nodes)[:size]
		gc := comm.GroupConfig{
			Members:       members,
			Kind:          comm.OpBarrier,
			Algorithm:     barrier.Dissemination,
			MyrinetScheme: myrinet.SchemeCollective,
			ElanScheme:    elan.SchemeChained,
		}
		// Quadrics groups run barriers only; on Myrinet alternate in
		// allreduce tenants to exercise the epoch-aware exactness check.
		if spec.Backend == Myrinet && rng.Intn(2) == 0 {
			gc.Kind = comm.OpAllreduce
			gc.Reduce = core.ReduceMax
			gc.Contrib = chaosContrib
		}
		g, err := c.NewGroup(gc)
		if err != nil {
			return Report{}, fmt.Errorf("chaos: group %d: %w", i, err)
		}
		if err := g.SetRecovery(rec); err != nil {
			return Report{}, fmt.Errorf("chaos: group %d: %w", i, err)
		}
		tenants = append(tenants, tenant{g: g, members: append([]int(nil), members...)})
	}

	for _, t := range tenants {
		t.g.Launch(spec.OpsPerGroup)
	}
	c.DriveAll()
	eng.Run() // drain trailing traffic and timers

	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	allowedEvict := map[int]bool{}
	for _, v := range sc.crashed {
		allowedEvict[v] = true
	}
	for v := range sc.partEnds {
		allowedEvict[v] = true
	}
	for i, t := range tenants {
		st := t.g.Recovery()
		rep.OpsCompleted += len(st.DoneTimes)
		rep.Evictions += len(st.Evicted)
		rep.Retries += st.Retries
		rep.Timeouts += st.Timeouts
		if t.g.Failed() {
			rep.FailedGroups++
		} else if len(st.DoneTimes) != spec.OpsPerGroup {
			violate("group %d stalled: %d of %d ops, no terminal error",
				i, len(st.DoneTimes), spec.OpsPerGroup)
		}
		for _, node := range st.Evicted {
			if !allowedEvict[node] {
				violate("group %d evicted healthy node %d (faulted: crashes %v, partitions %v)",
					i, node, rep.CrashTargets, sc.partEnds)
			}
		}
		if !t.g.Failed() {
			for _, node := range t.g.Members {
				if sc.permanent[node] {
					violate("group %d completed with permanently crashed member %d", i, node)
				}
			}
		}
		if err := verifyRows(st); err != nil {
			violate("group %d: %v", i, err)
		}
	}

	for _, t := range tenants {
		if err := t.g.Close(); err != nil {
			violate("close: %v", err)
		}
	}
	eng.Run()
	if n := eng.Pending(); n != 0 {
		violate("%d events/timers leaked after closing every group", n)
	}
	for node := 0; node < spec.Nodes; node++ {
		if free := c.SlotsFree(node); free != slotCap {
			violate("node %d: %d of %d NIC slots free after teardown", node, free, slotCap)
		}
	}
	return rep, nil
}

// verifyRows checks an allreduce tenant's recovery ledger epoch by
// epoch: each operation's result must equal the reference reduction
// over the membership that produced it.
func verifyRows(st *comm.RecoveryStatus) error {
	if len(st.Rows) == 0 {
		return nil // barrier tenant
	}
	e := 0
	for iter, row := range st.Rows {
		for e+1 < len(st.Epochs) && st.Epochs[e+1].FromOp <= iter {
			e++
		}
		size := len(st.Epochs[e].Members)
		if len(row) != size {
			return fmt.Errorf("allreduce op %d: %d results for a membership of %d", iter, len(row), size)
		}
		want := chaosContrib(0, iter)
		for r := 1; r < size; r++ {
			want = core.ReduceMax.Combine(want, chaosContrib(r, iter))
		}
		for rank, got := range row {
			if got != want {
				return fmt.Errorf("allreduce op %d rank %d: got %d, want %d", iter, rank, got, want)
			}
		}
	}
	return nil
}
