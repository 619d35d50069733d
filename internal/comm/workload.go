package comm

import (
	"fmt"
	"math"
	"sort"

	"nicbarrier/internal/barrier"
	"nicbarrier/internal/core"
	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// ArrivalKind selects how a tenant's operation stream is paced.
type ArrivalKind int

// Arrival processes.
const (
	// ClosedLoop issues the next operation when the previous one
	// completes, after an exponential think time of mean MeanGapUS
	// (0: back-to-back, the paper's measurement loop).
	ClosedLoop ArrivalKind = iota
	// OpenLoop issues operations on a Poisson process of mean
	// interarrival MeanGapUS, independent of completions; when the
	// system falls behind, queueing delay shows up in the latency.
	OpenLoop
)

// String implements fmt.Stringer.
func (k ArrivalKind) String() string {
	switch k {
	case ClosedLoop:
		return "closed-loop"
	case OpenLoop:
		return "open-loop"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// ArrivalSpec parameterizes one tenant's arrival process.
type ArrivalSpec struct {
	Kind ArrivalKind
	// MeanGapUS is the mean think time (closed loop) or mean
	// interarrival gap (open loop), simulated microseconds.
	MeanGapUS float64
}

// OpMix weights how tenants are assigned operation kinds. Zero value
// means all-barrier.
type OpMix struct {
	Barrier, Broadcast, Allreduce int
}

// WorkloadSpec describes a multi-tenant collective workload.
type WorkloadSpec struct {
	// Tenants is the number of concurrent groups; OpsPerTenant the
	// operations each issues.
	Tenants, OpsPerTenant int
	// GroupSizeMin/Max bound each tenant's group size, drawn uniformly.
	// Both zero partitions the cluster evenly (size = nodes/tenants).
	GroupSizeMin, GroupSizeMax int
	// Overlap places tenants on random (possibly shared) nodes; the
	// default packs tenants into disjoint blocks of a shuffled node list
	// and fails when the cluster cannot fit them.
	Overlap bool
	// Mix assigns operation kinds across tenants by weight.
	Mix OpMix
	// Arrival paces every tenant's stream.
	Arrival ArrivalSpec
	// PerTenantGapUS overrides Arrival.MeanGapUS for individual tenants
	// (index = tenant; 0 or out of range inherits the global gap), so
	// one workload can mix hot tenants hammering the cluster with cold
	// ones trickling — the shape churn and SLO experiments need. The
	// arrival kind stays global.
	PerTenantGapUS []float64
	// Algorithm picks the schedule for barrier/allreduce tenants
	// (zero value: dissemination, as in the paper).
	Algorithm barrier.Algorithm
	// Seed drives membership, mix assignment and arrival draws.
	Seed uint64
	// Recovery, when its OpDeadline is nonzero, arms fail-stop
	// survival on every tenant group (see Group.SetRecovery): op
	// deadlines, heartbeat failure detection, eviction and
	// retry-with-backoff. Tenants whose recovery fails terminally end
	// their stream early and report Failed instead of hanging the
	// workload. The zero value disables all of it — the bit-identical
	// baseline path.
	Recovery RecoveryConfig
}

// gapFor resolves tenant t's mean arrival/think gap.
func (s WorkloadSpec) gapFor(t int) float64 {
	if t < len(s.PerTenantGapUS) && s.PerTenantGapUS[t] > 0 {
		return s.PerTenantGapUS[t]
	}
	return s.Arrival.MeanGapUS
}

func (s WorkloadSpec) validate(nodes int) error {
	if s.Tenants < 1 {
		return fmt.Errorf("comm: Tenants = %d", s.Tenants)
	}
	if s.OpsPerTenant < 1 {
		return fmt.Errorf("comm: OpsPerTenant = %d", s.OpsPerTenant)
	}
	if s.GroupSizeMin < 0 || s.GroupSizeMax < s.GroupSizeMin {
		return fmt.Errorf("comm: group size bounds [%d, %d]", s.GroupSizeMin, s.GroupSizeMax)
	}
	if s.GroupSizeMin == 0 && s.GroupSizeMax == 0 {
		if nodes/s.Tenants < 2 {
			return fmt.Errorf("comm: %d tenants cannot partition %d nodes into groups of >= 2", s.Tenants, nodes)
		}
	} else if s.GroupSizeMin < 2 {
		return fmt.Errorf("comm: group size minimum %d < 2", s.GroupSizeMin)
	} else if s.GroupSizeMax > nodes {
		return fmt.Errorf("comm: group size maximum %d > %d nodes", s.GroupSizeMax, nodes)
	}
	if s.Mix.Barrier < 0 || s.Mix.Broadcast < 0 || s.Mix.Allreduce < 0 {
		return fmt.Errorf("comm: negative op-mix weight")
	}
	if s.Arrival.MeanGapUS < 0 {
		return fmt.Errorf("comm: MeanGapUS = %v", s.Arrival.MeanGapUS)
	}
	for t, gap := range s.PerTenantGapUS {
		if gap < 0 {
			return fmt.Errorf("comm: PerTenantGapUS[%d] = %v", t, gap)
		}
	}
	if s.Arrival.Kind == OpenLoop {
		for t := 0; t < s.Tenants; t++ {
			if s.gapFor(t) <= 0 {
				return fmt.Errorf("comm: open-loop arrivals need a positive mean gap (tenant %d has none)", t)
			}
		}
	}
	return nil
}

// pacer shapes one tenant's operation stream through the session NextAt
// hook. Its state is precomputed at workload setup so that the per-op
// dispatch — one nextAt call per issued operation — performs no
// allocation and no RNG work in steady state.
type pacer struct {
	eng *sim.Engine
	// arrivals holds the open-loop arrival instants; nil for closed loop.
	arrivals []sim.Time
	// think holds the closed-loop per-op think times; nil when both this
	// and arrivals are unset (back-to-back chaining).
	think []sim.Duration
	// off shifts the session-local iteration index to the tenant-global
	// op index. It is zero except after a recovery rebuild, where the
	// relaunched session restarts numbering at 0 but the tenant's
	// arrival/think schedule must continue where it left off.
	off int
}

// active reports whether the pacer shapes anything (an inactive pacer
// means back-to-back chaining, the session default).
func (p *pacer) active() bool { return p.arrivals != nil || p.think != nil }

// nextAt is the session gate: the earliest virtual time iteration next
// may post on this rank. Allocation-free.
func (p *pacer) nextAt(rank, next int) sim.Time {
	k := next + p.off
	if p.arrivals != nil {
		if k >= len(p.arrivals) {
			k = len(p.arrivals) - 1
		}
		return p.arrivals[k]
	}
	if p.think == nil {
		return 0
	}
	if k >= len(p.think) {
		k = len(p.think) - 1
	}
	return p.eng.Now().Add(p.think[k])
}

// expGap draws an exponential gap with the given mean (microseconds).
func expGap(rng *sim.RNG, meanUS float64) sim.Duration {
	return sim.Micros(-meanUS * math.Log1p(-rng.Float64()))
}

// TenantResult summarizes one tenant's stream.
type TenantResult struct {
	Tenant  int
	GroupID core.GroupID
	Size    int
	Kind    OpKind
	Ops     int
	// Latency statistics over per-op latencies (eligibility to global
	// completion), simulated microseconds.
	MeanUS, P50US, P95US, P99US, MaxUS float64
	// OpsPerSec is the tenant's throughput over virtual time.
	OpsPerSec float64
	// Fail-stop survival accounting (zero unless WorkloadSpec.Recovery
	// is armed): Failed marks a terminal op-timeout (the stream ended
	// after Ops of the requested operations), Evicted counts members
	// removed from the group, Retries counts survived abort/relaunch
	// cycles.
	Failed  bool
	Evicted int
	Retries int
}

// WorkloadResult aggregates a full multi-tenant run.
type WorkloadResult struct {
	Tenants  []TenantResult
	TotalOps int
	// MakespanUS is the virtual time of the last completion.
	MakespanUS float64
	// AggOpsPerSec is TotalOps over the makespan, in operations per
	// simulated second.
	AggOpsPerSec float64
	// Fairness is Jain's index over per-tenant throughputs: 1.0 means
	// perfectly even service, 1/N means one tenant got everything.
	Fairness float64
	// FailedTenants counts tenants whose recovery failed terminally;
	// Evictions sums members evicted across all tenants (both zero
	// without WorkloadSpec.Recovery).
	FailedTenants int
	Evictions     int
	// Wire accounting over the whole run.
	Sent, Dropped uint64
	// Decomp is the latency decomposition per op type (queue-wait vs
	// wire vs NIC-processing attribution); non-nil only when the cluster
	// has a tracer attached (SetTracer), which is what records the
	// underlying phase sums.
	Decomp []obs.OpDecomp
}

// tenantPlan is one tenant's precomputed setup: membership, operation
// kind and every arrival/think draw. Plans are drawn up-front by
// planTenants so that execution — single-cluster or sharded — performs
// no RNG work: the same seed yields the same plans no matter how many
// partitions later run them.
type tenantPlan struct {
	idx      int
	members  []int
	kind     OpKind
	arrivals []sim.Time     // open-loop arrival instants; nil for closed loop
	think    []sim.Duration // closed-loop think times; nil when back-to-back
}

// planTenants draws every tenant's plan from spec.Seed. The draw order
// (placement shuffle, then per tenant: size, members, kind, pacing) is
// a compatibility contract: it keeps single-partition runs bit-identical
// to the gated baseline, and it makes multi-partition runs agree with
// them on memberships, kinds and operation counts, because every
// partitioning executes the same plans. A kind the backend does not
// model becomes OpBarrier after the mix draw (Quadrics groups run
// barriers only), spending the same draws so the seed stream stays
// aligned across backends.
func planTenants(nodes int, spec WorkloadSpec, be backend) ([]tenantPlan, error) {
	rng := sim.NewRNG(spec.Seed ^ 0x7e4a47)

	// Disjoint placement slices one shuffled node list; overlapping
	// placement draws a fresh permutation per tenant.
	shuffled := rng.Perm(nodes)
	cursor := 0
	mixTotal := spec.Mix.Barrier + spec.Mix.Broadcast + spec.Mix.Allreduce

	plans := make([]tenantPlan, spec.Tenants)
	for t := 0; t < spec.Tenants; t++ {
		size := nodes / spec.Tenants
		if spec.GroupSizeMax > 0 {
			size = spec.GroupSizeMin + rng.Intn(spec.GroupSizeMax-spec.GroupSizeMin+1)
		}
		var members []int
		if spec.Overlap {
			members = rng.Perm(nodes)[:size]
		} else {
			if cursor+size > nodes {
				return nil, fmt.Errorf(
					"comm: tenant %d needs %d nodes but only %d of %d remain (use Overlap or shrink groups)",
					t, size, nodes-cursor, nodes)
			}
			members = shuffled[cursor : cursor+size]
			cursor += size
		}
		kind := OpBarrier
		if mixTotal > 0 {
			switch r := rng.Intn(mixTotal); {
			case r < spec.Mix.Barrier:
				kind = OpBarrier
			case r < spec.Mix.Barrier+spec.Mix.Broadcast:
				kind = OpBroadcast
			default:
				kind = OpAllreduce
			}
		}
		if be.checkKind(kind) != nil {
			kind = OpBarrier
		}
		p := tenantPlan{idx: t, members: members, kind: kind}

		// Precompute the arrival process so steady-state dispatch is
		// allocation- and RNG-free.
		gap := spec.gapFor(t)
		switch spec.Arrival.Kind {
		case OpenLoop:
			arr := make([]sim.Time, spec.OpsPerTenant)
			var at sim.Time
			for k := range arr {
				at = at.Add(expGap(rng, gap))
				arr[k] = at
			}
			p.arrivals = arr
		case ClosedLoop:
			if gap > 0 {
				think := make([]sim.Duration, spec.OpsPerTenant)
				for k := range think {
					think[k] = expGap(rng, gap)
				}
				p.think = think
			}
		}
		plans[t] = p
	}
	return plans, nil
}

// installTenant realizes one plan on a cluster: creates the group,
// attaches the precomputed pacer, and returns the eligibility vector
// (open loop: the arrival instants; closed loop: zeros, derived after
// the run from completions).
func installTenant(c *Cluster, spec WorkloadSpec, p tenantPlan) (*Group, []sim.Time, error) {
	gc := nicResident(GroupConfig{
		Members:   p.members,
		Kind:      p.kind,
		Algorithm: spec.Algorithm,
	})
	if p.kind == OpAllreduce {
		// Max is exact for every group size and algorithm, so mixed
		// workloads never trip the sum/dissemination exactness rule.
		gc.Reduce = core.ReduceMax
		gc.Contrib = allreduceContrib
	}
	g, err := c.NewGroup(gc)
	if err != nil {
		return nil, nil, fmt.Errorf("comm: tenant %d: %w", p.idx, err)
	}
	if c.tr != nil {
		c.tr.BindGroupTenant(int(g.ID), p.idx)
	}
	g.pace.eng = c.Eng
	g.pace.arrivals = p.arrivals
	g.pace.think = p.think
	g.applyPace()
	if spec.Recovery.OpDeadline > 0 {
		if err := g.SetRecovery(spec.Recovery); err != nil {
			g.Close()
			return nil, nil, fmt.Errorf("comm: tenant %d: %w", p.idx, err)
		}
	}
	elig := make([]sim.Time, spec.OpsPerTenant)
	copy(elig, p.arrivals)
	return g, elig, nil
}

// tenantDone returns a tenant's completed-op times: the recovery ledger
// when survival is armed (completions span rebuilt sessions, and the
// final session may have been aborted), the session's own record
// otherwise.
func tenantDone(g *Group) []sim.Time {
	if st := g.Recovery(); st != nil {
		return st.DoneTimes
	}
	return g.DoneAt()
}

// deriveClosedLoopEligibility back-fills closed-loop eligibility after
// a run: op k became eligible when op k-1 completed plus the think gap
// (op 0 after the initial think from t=0). Open-loop eligibility was
// fixed at planning time, so this is a no-op there.
func deriveClosedLoopEligibility(spec WorkloadSpec, groups []*Group, eligible [][]sim.Time) {
	if spec.Arrival.Kind != ClosedLoop {
		return
	}
	for t, g := range groups {
		done := tenantDone(g)
		for k := range eligible[t] {
			if k > len(done) {
				break // ops beyond the completed stream never became eligible
			}
			var base sim.Time
			if k > 0 {
				base = done[k-1]
			}
			if g.pace.think != nil {
				base = base.Add(g.pace.think[k])
			}
			eligible[t][k] = base
		}
	}
}

// collectWorkload verifies and aggregates a finished run's groups into
// a WorkloadResult. plans supply the workload-wide tenant indices, so
// a shard reporting a subset of tenants labels them by their global
// identity.
func collectWorkload(c *Cluster, spec WorkloadSpec, plans []tenantPlan,
	groups []*Group, eligible [][]sim.Time) (WorkloadResult, error) {
	var res WorkloadResult
	var makespan sim.Time
	var sumTput, sumTputSq float64
	lat := make([]float64, 0, spec.OpsPerTenant)
	for i, g := range groups {
		if err := verifyTenantAllreduce(g); err != nil {
			return WorkloadResult{}, err
		}
		st := g.Recovery()
		done := tenantDone(g)
		res.TotalOps += len(done)
		tr := TenantResult{
			Tenant:  plans[i].idx,
			GroupID: g.ID,
			Size:    g.Size(),
			Kind:    g.Kind,
			Ops:     len(done),
		}
		if st != nil {
			tr.Failed = st.Err != nil
			tr.Evicted = len(st.Evicted)
			tr.Retries = st.Retries
			if tr.Failed {
				res.FailedTenants++
			}
			res.Evictions += tr.Evicted
		}
		if c.tr != nil && (st == nil || st.Retries == 0) {
			// Emit one span per op: queue wait (eligible to first post)
			// and in-flight time (first post to global completion). A
			// tenant that retried relaunched on fresh sessions, so the
			// post record no longer lines up with the tenant-global op
			// index — its spans are skipped.
			startAt := g.StartAt()
			for k, at := range done {
				c.tr.OpSpan(int(g.ID), g.Kind.String(), eligible[i][k], startAt[k], at)
			}
		}
		if len(done) == 0 {
			// Terminal failure before the first completion: the zeroed,
			// Failed-flagged row keeps the tenant visible in the report.
			res.Tenants = append(res.Tenants, tr)
			continue
		}
		last := done[len(done)-1]
		if last > makespan {
			makespan = last
		}
		lat = lat[:0]
		var sum, maxL float64
		for k, at := range done {
			l := at.Sub(eligible[i][k]).Micros()
			lat = append(lat, l)
			sum += l
			if l > maxL {
				maxL = l
			}
		}
		sort.Float64s(lat)
		tput := float64(len(done)) / (last.Micros() / 1e6)
		tr.MeanUS = sum / float64(len(done))
		tr.P50US = percentile(lat, 0.50)
		tr.P95US = percentile(lat, 0.95)
		tr.P99US = percentile(lat, 0.99)
		tr.MaxUS = maxL
		tr.OpsPerSec = tput
		res.Tenants = append(res.Tenants, tr)
		sumTput += tput
		sumTputSq += tput * tput
	}
	res.MakespanUS = makespan.Micros()
	if res.MakespanUS > 0 {
		res.AggOpsPerSec = float64(res.TotalOps) / (res.MakespanUS / 1e6)
	}
	if sumTputSq > 0 {
		res.Fairness = sumTput * sumTput / (float64(len(groups)) * sumTputSq)
	}
	net := c.be.network().Counters()
	res.Sent, res.Dropped = net.Sent, net.Dropped
	if c.tr != nil {
		res.Decomp = c.tr.Decomp()
	}
	return res, nil
}

// RunWorkload generates spec's tenants over the cluster, runs every
// stream to completion concurrently, and reports throughput, latency and
// fairness. All randomness derives from spec.Seed; runs are
// bit-deterministic. Allreduce tenants' results are verified against the
// reference reduction, so cross-tenant contamination of NIC state cannot
// pass silently.
func RunWorkload(c *Cluster, spec WorkloadSpec) (WorkloadResult, error) {
	nodes := c.Nodes()
	if err := spec.validate(nodes); err != nil {
		return WorkloadResult{}, err
	}
	plans, err := planTenants(nodes, spec, c.be)
	if err != nil {
		return WorkloadResult{}, err
	}
	groups := make([]*Group, len(plans))
	eligible := make([][]sim.Time, len(plans)) // per tenant, per op
	for i, p := range plans {
		g, elig, err := installTenant(c, spec, p)
		if err != nil {
			return WorkloadResult{}, err
		}
		groups[i], eligible[i] = g, elig
	}

	for _, g := range groups {
		g.Launch(spec.OpsPerTenant)
	}
	c.DriveAll()
	c.Eng.Run() // drain trailing traffic so counters are complete

	deriveClosedLoopEligibility(spec, groups, eligible)
	res, err := collectWorkload(c, spec, plans, groups, eligible)
	if c.tr != nil {
		// After collection, so the last live snapshot carries the
		// span-fed latency histograms alongside the live counters.
		c.tr.PublishFinal(c.Eng.Now())
	}
	return res, err
}

// allreduceContrib is the deterministic per-rank contribution workload
// allreduce tenants feed in; verifyAllreduce recomputes it.
func allreduceContrib(rank, iter int) int64 { return int64(rank*31 + iter*7 - 11) }

// verifyTenantAllreduce checks an allreduce tenant's results against the
// reference reduction. A group that retried under recovery verifies its
// ledger rows epoch by epoch — each eviction shrinks the membership, so
// the expected reduction changes at every epoch boundary.
func verifyTenantAllreduce(g *Group) error {
	st := g.Recovery()
	if st == nil || st.Retries == 0 {
		return verifyAllreduce(g)
	}
	if g.Kind != OpAllreduce {
		return nil
	}
	epochs := st.Epochs
	e := 0
	for iter, row := range st.Rows {
		for e+1 < len(epochs) && epochs[e+1].FromOp <= iter {
			e++
		}
		size := len(epochs[e].Members)
		if len(row) != size {
			return fmt.Errorf("comm: group %d allreduce op %d: %d results for a membership of %d",
				g.ID, iter, len(row), size)
		}
		want := allreduceContrib(0, iter)
		for r := 1; r < size; r++ {
			want = core.ReduceMax.Combine(want, allreduceContrib(r, iter))
		}
		for rank, got := range row {
			if got != want {
				return fmt.Errorf("comm: group %d allreduce op %d rank %d: got %d, want %d",
					g.ID, iter, rank, got, want)
			}
		}
	}
	return nil
}

// verifyAllreduce checks every iteration's result on every rank against
// the reference reduction — the cheap invariant that proves concurrent
// groups did not contaminate each other's NIC state.
func verifyAllreduce(g *Group) error {
	rows := g.Results()
	if rows == nil {
		return nil
	}
	for iter, row := range rows {
		want := allreduceContrib(0, iter)
		for r := 1; r < g.Size(); r++ {
			want = core.ReduceMax.Combine(want, allreduceContrib(r, iter))
		}
		for rank, got := range row {
			if got != want {
				return fmt.Errorf("comm: group %d allreduce iter %d rank %d: got %d, want %d",
					g.ID, iter, rank, got, want)
			}
		}
	}
	return nil
}

// ChurnSpec describes a tenant-churn workload: tenants arrive over
// virtual time on a Poisson process, each installs a group (through the
// admission controller), runs a stream of barriers, optionally
// reconfigures its membership halfway, and departs — closing the group
// and returning its NIC slots. Cumulative installs deliberately exceed
// any NIC's slot count, so the run only completes if teardown really
// reclaims slots (and, under AdmitQueue, if deferred installs really get
// served).
type ChurnSpec struct {
	// Tenants is the total number of tenants over the run; OpsPerTenant
	// the barrier operations each runs before departing.
	Tenants, OpsPerTenant int
	// GroupSizeMin/Max bound each tenant's group size, drawn uniformly.
	// Both zero defaults to [2, min(4, nodes)]. Members are drawn
	// randomly (tenants overlap), which is what makes individual NICs
	// run out of slots.
	GroupSizeMin, GroupSizeMax int
	// MeanArrivalGapUS is the mean gap between tenant arrivals
	// (exponential); 0 makes every tenant arrive at t=0.
	MeanArrivalGapUS float64
	// MeanThinkUS adds an exponential think time between a tenant's
	// operations (0: back-to-back).
	MeanThinkUS float64
	// ReconfigureEvery makes every k-th tenant swap to a fresh random
	// membership after half its operations (0: never). A failed swap
	// (no slots on the new members) keeps the old membership and is
	// counted, not fatal.
	ReconfigureEvery int
	// Policy and ChargeSetupCosts configure the admission controller for
	// the run; churn workloads usually want AdmitQueue and charged
	// install costs (lifecycle on a live cluster).
	Policy           AdmitPolicy
	ChargeSetupCosts bool
	// Algorithm picks the barrier schedule (zero: dissemination).
	Algorithm barrier.Algorithm
	// Seed drives arrivals, sizes, memberships and think times.
	Seed uint64
}

func (s ChurnSpec) validate(nodes int) error {
	if s.Tenants < 1 {
		return fmt.Errorf("comm: churn Tenants = %d", s.Tenants)
	}
	if s.OpsPerTenant < 1 {
		return fmt.Errorf("comm: churn OpsPerTenant = %d", s.OpsPerTenant)
	}
	min, max := s.sizeBounds(nodes)
	if min < 2 || max < min || max > nodes {
		return fmt.Errorf("comm: churn group size bounds [%d, %d] on %d nodes", min, max, nodes)
	}
	if s.MeanArrivalGapUS < 0 || s.MeanThinkUS < 0 {
		return fmt.Errorf("comm: negative churn gap")
	}
	if s.ReconfigureEvery < 0 {
		return fmt.Errorf("comm: ReconfigureEvery = %d", s.ReconfigureEvery)
	}
	return nil
}

func (s ChurnSpec) sizeBounds(nodes int) (min, max int) {
	min, max = s.GroupSizeMin, s.GroupSizeMax
	if min == 0 && max == 0 {
		min = 2
		max = 4
		if max > nodes {
			max = nodes
		}
	}
	return min, max
}

// ChurnResult aggregates one churn run.
type ChurnResult struct {
	// Tenants were offered; Completed ran all their operations and
	// departed (they are equal unless the run errored).
	Tenants, Completed int
	TotalOps           int
	// MakespanUS is the virtual time of the last departure.
	MakespanUS float64
	// AggOpsPerSec is TotalOps over the makespan.
	AggOpsPerSec float64
	// Admission accounting (see AdmissionStats): installs include
	// reconfiguration reinstalls, QueuedInstalls counts installs that
	// had to wait for a departure, SlotHighWater the busiest NIC moment.
	Installs, Uninstalls, QueuedInstalls, MaxQueueLen, SlotHighWater int
	// QueueWaitMeanUS/P95US summarize how long queued installs waited.
	QueueWaitMeanUS, QueueWaitP95US float64
	// Reconfigs counts successful membership swaps; ReconfigsFailed the
	// swaps refused for lack of slots on the new members.
	Reconfigs, ReconfigsFailed int
	// Pre/post-swap op latencies over the tenants that reconfigure:
	// completion-to-completion gaps before the membership swap vs after
	// it (counts and percentiles, simulated microseconds). Zero when no
	// tenant swaps.
	PreSwapOps, PostSwapOps                     int
	PreSwapP50US, PreSwapP95US, PreSwapP99US    float64
	PostSwapP50US, PostSwapP95US, PostSwapP99US float64
	// Wire accounting over the whole run.
	Sent, Dropped uint64
}

// churnTenant is one tenant's precomputed lifecycle.
type churnTenant struct {
	idx       int
	arriveAt  sim.Time
	members   []int
	newMembrs []int // reconfiguration target; nil when the tenant never swaps
	think     []sim.Duration
	g         *Group
	target    int // run-local final iteration of the current run
	swapped   bool
	// lastDone tracks the previous completion (arrival before the first)
	// for the pre/post-swap latency histograms.
	lastDone sim.Time
}

// planChurn draws every churn tenant's lifecycle (arrival instant,
// size, membership, optional reconfiguration target, think times) from
// spec.Seed. Like planTenants, the draw order is a compatibility
// contract: partitioned churn runs execute the same lifecycles a
// single-cluster run would.
func planChurn(nodes int, spec ChurnSpec) []*churnTenant {
	rng := sim.NewRNG(spec.Seed ^ 0xc42917)
	minSize, maxSize := spec.sizeBounds(nodes)

	tenants := make([]*churnTenant, spec.Tenants)
	var at sim.Time
	for t := range tenants {
		if spec.MeanArrivalGapUS > 0 {
			at = at.Add(expGap(rng, spec.MeanArrivalGapUS))
		}
		size := minSize + rng.Intn(maxSize-minSize+1)
		tn := &churnTenant{idx: t, arriveAt: at, members: rng.Perm(nodes)[:size], lastDone: at}
		if spec.ReconfigureEvery > 0 && (t+1)%spec.ReconfigureEvery == 0 && spec.OpsPerTenant >= 2 {
			tn.newMembrs = rng.Perm(nodes)[:size]
		}
		if spec.MeanThinkUS > 0 {
			tn.think = make([]sim.Duration, spec.OpsPerTenant)
			for k := range tn.think {
				tn.think[k] = expGap(rng, spec.MeanThinkUS)
			}
		}
		tenants[t] = tn
	}
	return tenants
}

// churnOutcome is the raw product of one cluster's churn run, merged by
// finalizeChurn. Keeping the raw queue waits and latency histograms
// (rather than summarized percentiles) lets a sharded run compute exact
// statistics over all shards combined.
type churnOutcome struct {
	completed                  int
	lastDepart                 sim.Time
	reconfigs, reconfigsFailed int
	st                         AdmissionStats
	pre, post                  obs.Histogram
	sent, dropped              uint64
}

// runChurnPlans executes the given tenant lifecycles on one cluster —
// the whole workload, or one shard's round-robin slice of it — and
// returns the raw outcome.
func runChurnPlans(c *Cluster, spec ChurnSpec, tenants []*churnTenant) (churnOutcome, error) {
	c.SetAdmission(AdmissionConfig{Policy: spec.Policy, ChargeSetupCosts: spec.ChargeSetupCosts})

	var out churnOutcome
	var failure error
	var lastDepart sim.Time
	completed := 0
	// Per-op latency (completion gap) of reconfiguring tenants, split at
	// their membership swap — the apples-to-apples SLO comparison.
	var preLat, postLat obs.Histogram

	for _, tn := range tenants {
		tn := tn
		c.Eng.Schedule(tn.arriveAt, func() {
			if failure != nil {
				return
			}
			g, err := c.NewGroup(nicResident(GroupConfig{
				Members:   tn.members,
				Kind:      OpBarrier,
				Algorithm: spec.Algorithm,
			}))
			if err != nil {
				failure = fmt.Errorf("comm: churn tenant %d: %w", tn.idx, err)
				return
			}
			tn.g = g
			if c.tr != nil {
				c.tr.BindGroupTenant(int(g.ID), tn.idx)
			}
			if tn.think != nil {
				g.pace = pacer{eng: c.Eng, think: tn.think}
				g.applyPace()
			}
			firstRun := spec.OpsPerTenant
			if tn.newMembrs != nil {
				firstRun = spec.OpsPerTenant / 2
			}
			tn.target = firstRun
			g.SetOnIterDone(func(iter int, doneAt sim.Time) {
				if tn.newMembrs != nil {
					gap := doneAt.Sub(tn.lastDone)
					if tn.swapped {
						postLat.Observe(gap)
					} else {
						preLat.Observe(gap)
					}
				}
				tn.lastDone = doneAt
				if iter != tn.target-1 {
					return
				}
				if tn.newMembrs != nil && !tn.swapped {
					// Halfway point: swap membership, hand the sequence
					// over, run the rest on the new group incarnation.
					tn.swapped = true
					g.Reset()
					if err := g.Reconfigure(tn.newMembrs); err != nil {
						out.reconfigsFailed++ // keep the old membership
					} else {
						out.reconfigs++
					}
					if tn.think != nil {
						// The pacer indexes by run-local iteration, which
						// restarts at 0: hand it the second half of the
						// precomputed draws so post-swap gaps stay fresh.
						g.pace = pacer{eng: c.Eng, think: tn.think[firstRun:]}
						g.applyPace()
					}
					tn.target = spec.OpsPerTenant - firstRun
					g.Launch(tn.target)
					return
				}
				// Departure: free the slots; queued installs drain now.
				g.Close()
				completed++
				if doneAt > lastDepart {
					lastDepart = doneAt
				}
			})
			g.Launch(firstRun)
		})
	}

	finished := func() bool { return failure != nil || completed == len(tenants) }
	if !c.Eng.RunCondition(finished) && failure == nil {
		st := c.AdmissionStats()
		return churnOutcome{}, fmt.Errorf(
			"comm: churn deadlocked with %d of %d tenants complete (%d installs still queued)",
			completed, len(tenants), st.QueueLen)
	}
	if failure != nil {
		return churnOutcome{}, failure
	}
	c.Eng.Run() // drain trailing teardown charges and wire traffic
	if c.tr != nil {
		c.tr.PublishFinal(c.Eng.Now())
	}

	out.completed = completed
	out.lastDepart = lastDepart
	out.st = c.AdmissionStats()
	out.pre, out.post = preLat, postLat
	net := c.be.network().Counters()
	out.sent, out.dropped = net.Sent, net.Dropped
	return out, nil
}

// finalizeChurn merges one outcome per cluster into the reported
// statistics: counts sum, high-water marks take the maximum, and the
// wait/latency distributions are pooled before percentiles are taken.
func finalizeChurn(spec ChurnSpec, outs []churnOutcome) ChurnResult {
	res := ChurnResult{Tenants: spec.Tenants}
	var waits []float64
	var preLat, postLat obs.Histogram
	var lastDepart sim.Time
	for i := range outs {
		o := &outs[i]
		res.Completed += o.completed
		res.Installs += o.st.Installs
		res.Uninstalls += o.st.Uninstalls
		res.QueuedInstalls += o.st.Queued
		if o.st.MaxQueueLen > res.MaxQueueLen {
			res.MaxQueueLen = o.st.MaxQueueLen
		}
		if o.st.SlotHighWater > res.SlotHighWater {
			res.SlotHighWater = o.st.SlotHighWater
		}
		res.Reconfigs += o.reconfigs
		res.ReconfigsFailed += o.reconfigsFailed
		waits = append(waits, o.st.WaitsUS...)
		preLat.Merge(&o.pre)
		postLat.Merge(&o.post)
		if o.lastDepart > lastDepart {
			lastDepart = o.lastDepart
		}
		res.Sent += o.sent
		res.Dropped += o.dropped
	}
	res.TotalOps = res.Completed * spec.OpsPerTenant
	res.MakespanUS = lastDepart.Micros()
	if res.MakespanUS > 0 {
		res.AggOpsPerSec = float64(res.TotalOps) / (res.MakespanUS / 1e6)
	}
	if len(waits) > 0 {
		sort.Float64s(waits)
		var sum float64
		for _, w := range waits {
			sum += w
		}
		res.QueueWaitMeanUS = sum / float64(len(waits))
		res.QueueWaitP95US = percentile(waits, 0.95)
	}
	if preLat.Count() > 0 {
		s := obs.SnapshotHistogram(&preLat)
		res.PreSwapOps = int(s.Count)
		res.PreSwapP50US, res.PreSwapP95US, res.PreSwapP99US = s.P50US, s.P95US, s.P99US
	}
	if postLat.Count() > 0 {
		s := obs.SnapshotHistogram(&postLat)
		res.PostSwapOps = int(s.Count)
		res.PostSwapP50US, res.PostSwapP95US, res.PostSwapP99US = s.P50US, s.P95US, s.P99US
	}
	return res
}

// RunChurn executes spec's tenant churn on the cluster and reports
// throughput, admission and lifecycle statistics. All randomness derives
// from spec.Seed; runs are bit-deterministic. It returns an error when a
// tenant's install fails under the configured policy (AdmitError on a
// full NIC, a queued install that can never be served) — under
// AdmitQueue with departing tenants the run completes by construction.
func RunChurn(c *Cluster, spec ChurnSpec) (ChurnResult, error) {
	nodes := c.Nodes()
	if err := spec.validate(nodes); err != nil {
		return ChurnResult{}, err
	}
	out, err := runChurnPlans(c, spec, planChurn(nodes, spec))
	if err != nil {
		return ChurnResult{}, err
	}
	return finalizeChurn(spec, []churnOutcome{out}), nil
}

// percentile returns the nearest-rank percentile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
