package comm

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"nicbarrier/internal/core"
)

// AdmitPolicy decides what NewGroup does when a member NIC's group
// slots are exhausted.
type AdmitPolicy int

// Admission policies.
const (
	// AdmitError fails the install cleanly, leaving the cluster
	// untouched — the historical behavior and the default.
	AdmitError AdmitPolicy = iota
	// AdmitQueue accepts the group but defers its install until a Close
	// frees the slots it needs. Queued installs are served strictly
	// FIFO (a large group at the head is never starved by smaller ones
	// behind it); a Launch issued while queued replays at install time.
	AdmitQueue
	// AdmitSpread re-places the group on the member NICs with the MOST
	// free slots (load balancing: tenants spread across the cluster).
	AdmitSpread
	// AdmitPack re-places the group on the member NICs with the FEWEST
	// remaining free slots that still have one (bin packing: keeps whole
	// NICs free for future large tenants).
	AdmitPack
)

// String implements fmt.Stringer.
func (p AdmitPolicy) String() string {
	switch p {
	case AdmitError:
		return "error"
	case AdmitQueue:
		return "queue"
	case AdmitSpread:
		return "spread"
	case AdmitPack:
		return "pack"
	default:
		return fmt.Sprintf("AdmitPolicy(%d)", int(p))
	}
}

// AdmissionConfig configures the cluster's admission controller.
type AdmissionConfig struct {
	Policy AdmitPolicy
	// ChargeSetupCosts charges each profile's GroupInstallCost on the
	// member NICs' simulated timeline at install (and re-install via
	// Reconfigure or the queue). Uninstall cost is always charged —
	// teardown is inherently a live-cluster operation. The default false
	// keeps setup-phase installs free, which is what the one-shot
	// measurement paths (and the committed baselines) assume.
	ChargeSetupCosts bool
}

// AdmissionStats reports what the controller did so far.
type AdmissionStats struct {
	// Installs and Uninstalls count completed slot claims and releases
	// (a Reconfigure contributes one of each).
	Installs, Uninstalls int
	// Queued counts installs that could not proceed immediately;
	// QueueLen and MaxQueueLen describe the deferred-install queue.
	Queued, QueueLen, MaxQueueLen int
	// Placed counts groups the spread/pack policies moved onto
	// different members than requested.
	Placed int
	// SlotHighWater is the most communicator-held slots any single NIC
	// carried at one moment.
	SlotHighWater int
	// WaitsUS holds each served queued install's wait (simulated
	// microseconds), in service order.
	WaitsUS []float64
}

// sched is the admission controller: it owns the reference-counted slot
// accounting per member NIC, the deferred-install queue, and the
// placement policies. One per Cluster, single-threaded like everything
// above the engine.
type sched struct {
	c       *Cluster
	cfg     AdmissionConfig
	slotCap int   // per-NIC slot capacity from the hardware profile
	used    []int // communicator-held slots per node (refcounts)
	queue   []*Group

	stats AdmissionStats
}

func newSched(c *Cluster, slotCap int) *sched {
	return &sched{c: c, cfg: AdmissionConfig{}, slotCap: slotCap, used: make([]int, c.Nodes())}
}

// SetAdmission configures the admission controller. Changing the policy
// while installs are queued panics — the queue's semantics belong to the
// policy that created it.
func (c *Cluster) SetAdmission(cfg AdmissionConfig) {
	if len(c.sched.queue) > 0 {
		panic("comm: SetAdmission with queued installs pending")
	}
	c.sched.cfg = cfg
}

// Admission returns the current admission configuration.
func (c *Cluster) Admission() AdmissionConfig { return c.sched.cfg }

// AdmissionStats snapshots the controller's counters. The WaitsUS slice
// is shared; callers must not mutate it.
func (c *Cluster) AdmissionStats() AdmissionStats {
	st := c.sched.stats
	st.QueueLen = len(c.sched.queue)
	return st
}

// SlotsFree reports how many group slots remain on one node's NIC — the
// ground truth the backends maintain, which the controller's refcounts
// mirror for the groups it admitted.
func (c *Cluster) SlotsFree(node int) int { return c.be.slotsFree(node) }

// admit is NewGroup's policy dispatch: try the requested install, and on
// slot exhaustion either fail, queue, or re-place per the policy.
func (s *sched) admit(g *Group, gc GroupConfig) error {
	err := s.install(g, gc)
	if err == nil {
		return nil
	}
	if !errors.Is(err, core.ErrSlotsExhausted) {
		return err
	}
	switch s.cfg.Policy {
	case AdmitQueue:
		// install validated everything except slot availability, so the
		// deferred install cannot fail later for a reason the caller
		// should have seen today.
		gc.Members = append([]int(nil), gc.Members...)
		g.gc = gc
		g.Members = gc.Members
		g.queuedAt = s.c.Eng.Now()
		s.queue = append(s.queue, g)
		s.stats.Queued++
		if len(s.queue) > s.stats.MaxQueueLen {
			s.stats.MaxQueueLen = len(s.queue)
		}
		return nil
	case AdmitSpread, AdmitPack:
		members, perr := s.place(len(gc.Members), s.cfg.Policy == AdmitSpread)
		if perr != nil {
			return fmt.Errorf("%w; placement found no alternative: %v", err, perr)
		}
		gc.Members = members
		if ierr := s.install(g, gc); ierr != nil {
			return ierr
		}
		s.stats.Placed++
		return nil
	default: // AdmitError
		return err
	}
}

// install validates gc and binds a backend session for it under a
// fresh group ID, updating the slot refcounts and charging the install
// cost when configured. On failure g is left untouched.
func (s *sched) install(g *Group, gc GroupConfig) error {
	if err := s.preflight(gc); err != nil {
		return err
	}
	gc.Members = append([]int(nil), gc.Members...)
	sess, run, err := s.c.be.bind(gc, s.c.nextGID)
	if err != nil {
		return err
	}
	g.ID, g.Members, g.Kind = s.c.nextGID, gc.Members, gc.Kind
	g.sess, g.run = sess, run
	s.c.nextGID++
	g.gc = gc
	g.installedAt = s.c.Eng.Now()
	s.stats.Installs++
	if s.c.be.slotted(gc) {
		for _, id := range gc.Members {
			s.used[id]++
			if s.used[id] > s.stats.SlotHighWater {
				s.stats.SlotHighWater = s.used[id]
			}
		}
	}
	if s.cfg.ChargeSetupCosts {
		g.sess.ChargeInstall()
	}
	g.attach()
	return nil
}

// release returns an uninstalled group's slots to the refcounts and
// drains the queue — a departure is exactly when deferred installs can
// proceed.
func (s *sched) release(gc GroupConfig, members []int) {
	if s.c.be.slotted(gc) {
		for _, id := range members {
			if s.used[id] == 0 {
				panic(fmt.Sprintf("comm: slot refcount underflow on node %d", id))
			}
			s.used[id]--
		}
	}
	s.stats.Uninstalls++
	s.drain()
}

// withdraw removes a still-queued group from the admission queue (its
// Close before any slots materialized). Withdrawing the head unblocks
// whatever FIFO'd behind it, so the queue drains.
func (s *sched) withdraw(g *Group) {
	for i, q := range s.queue {
		if q == g {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.drain()
			return
		}
	}
	panic("comm: withdrawing a group that is not queued")
}

// drain serves the deferred-install queue strictly FIFO: install the
// head while its slots are available, stop at the first head that still
// cannot fit. Served groups replay any Launch that arrived while they
// waited. The empty-queue fast path is allocation-free — it runs on
// every group departure.
func (s *sched) drain() {
	for len(s.queue) > 0 {
		head := s.queue[0]
		if err := s.install(head, head.gc); err != nil {
			if errors.Is(err, core.ErrSlotsExhausted) {
				return // strict FIFO: nothing behind the head may jump it
			}
			// install validated everything but slot capacity at admission.
			panic(fmt.Sprintf("comm: queued install failed: %v", err))
		}
		s.queue = s.queue[1:]
		head.queueWaitUS = head.installedAt.Sub(head.queuedAt).Micros()
		s.stats.WaitsUS = append(s.stats.WaitsUS, head.queueWaitUS)
		if head.pendingIters > 0 {
			iters := head.pendingIters
			head.pendingIters = 0
			head.launchSess(iters)
		}
	}
}

// place picks size members for a re-placed group: spread prefers the
// nodes with the most free slots (even load), pack the fewest non-zero
// (dense packing); ties break on node ID, and the chosen members are
// returned in ascending node order so placement is deterministic.
func (s *sched) place(size int, spread bool) ([]int, error) {
	type cand struct{ node, free int }
	var cands []cand
	for node := 0; node < s.c.Nodes(); node++ {
		if free := s.c.SlotsFree(node); free > 0 {
			cands = append(cands, cand{node, free})
		}
	}
	if len(cands) < size {
		return nil, fmt.Errorf("%d nodes with free slots, need %d", len(cands), size)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].free != cands[j].free {
			if spread {
				return cands[i].free > cands[j].free
			}
			return cands[i].free < cands[j].free
		}
		return cands[i].node < cands[j].node
	})
	members := make([]int, size)
	for i := range members {
		members[i] = cands[i].node
	}
	sort.Ints(members)
	return members, nil
}

// preflight validates everything about gc except slot capacity, so an
// install deferred by the queueing policy cannot fail at drain time for
// a reason that was knowable at admission, and backends bind only
// configurations that are valid.
func (s *sched) preflight(gc GroupConfig) error {
	nodes := s.c.Nodes()
	// Sorted, repeats sit side by side (no map: every install runs this).
	ids := slices.Clone(gc.Members)
	slices.Sort(ids)
	for i, id := range ids {
		if id < 0 || id >= nodes {
			return fmt.Errorf("comm: member node %d outside cluster of %d", id, nodes)
		}
		if i > 0 && id == ids[i-1] {
			return fmt.Errorf("comm: member node %d repeated", id)
		}
	}
	if err := s.c.be.checkKind(gc.Kind); err != nil {
		return err
	}
	switch gc.Kind {
	case OpBarrier:
	case OpBroadcast:
		if gc.Root < 0 || gc.Root >= len(gc.Members) {
			return fmt.Errorf("comm: broadcast root %d outside group of %d", gc.Root, len(gc.Members))
		}
	case OpAllreduce:
		if gc.Contrib == nil {
			return fmt.Errorf("comm: allreduce group without Contrib")
		}
		if err := core.CheckReduce(gc.Reduce, gc.Algorithm, len(gc.Members)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("comm: unknown op kind %d", int(gc.Kind))
	}
	return nil
}
