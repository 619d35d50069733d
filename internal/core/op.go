package core

import (
	"fmt"
	"slices"

	"nicbarrier/internal/barrier"
)

// OpState is the per-group, per-rank state machine for consecutive
// collective operations. It is the protocol's "single send record per
// operation": one bit vector tracks peer arrivals, a step counter tracks
// this rank's sends, and a one-deep early buffer absorbs notifications
// for operation seq+1 that arrive while seq is still in flight (a fast
// peer may complete barrier k and inject its first message of barrier
// k+1 before a slow peer finishes k; messages for k+2 are impossible
// while k is incomplete, because completing k+1 requires this rank's k+1
// messages, so one buffer is provably enough).
//
// The state machine is pure: it charges no simulated time and sends no
// packets. Callers (the Myrinet MCP collective module, the Quadrics
// chained-RDMA model) translate the returned rank lists into wire traffic
// and charge their own processing costs.
//
// The layout is map-free and sized by the rank's schedule, never by the
// group. Arrival bits follow ExpectedArrivals order, so each step waits
// on a contiguous bit range and AppendMissing lists ranks in schedule order.
// The tables share one allocation, in the order Arrive reads them, and
// the fields Arrive reads come first, so an arrival touches few cache
// lines.
type OpState struct {
	seq     int // active or most recently completed operation; -1 before first
	step    int
	sent    int // steps whose sends were issued: step or step+1 while active
	active  bool
	arrived BitVector // arrivals for the active operation, by bit
	bitOf   []int     // pair(sender rank, bit), sorted
	waitEnd []int     // step i waits on bits [waitEnd[i], waitEnd[i+1])
	sendEnd []int     // step i sends to sends[sendEnd[i]:sendEnd[i+1]]
	sends   []int     // every step's destinations, back to back

	early  BitVector // buffered arrivals for seq+1, by bit
	rankOf []int     // arrival bit -> sender rank
	sendOf []int     // pair(destination rank, step), sorted

	// Duplicates counts arrivals that were already recorded (retransmits
	// that raced the original); they are ignored but visible for tests.
	Duplicates int
	// Stale counts arrivals for operations already completed.
	Stale int
}

// pair packs a peer rank and an index (an arrival bit or a step) into
// one int, rank in the high half, so sorting pairs sorts them by rank.
func pair(rank, idx int) int { return rank<<32 | idx }

// lookup binary-searches sorted pairs for rank's index.
func lookup(ps []int, rank int) (int, bool) {
	i, _ := slices.BinarySearch(ps, pair(rank, 0))
	if i < len(ps) && ps[i]>>32 == rank {
		return ps[i] & (1<<32 - 1), true
	}
	return 0, false
}

// sortPairs sorts ps by rank and panics on a repeated rank with msg.
func sortPairs(ps []int, msg string) {
	slices.Sort(ps)
	for i := 1; i < len(ps); i++ {
		if ps[i]>>32 == ps[i-1]>>32 {
			panic(fmt.Sprintf("core: schedule %s rank %d", msg, ps[i]>>32))
		}
	}
}

// NewOpState builds the state machine for one rank's schedule. It copies
// what it needs and keeps no reference to sched, and it makes the same
// number of allocations whatever the group size.
func NewOpState(sched barrier.Schedule) *OpState {
	nWait, nSend, nSteps := 0, 0, len(sched.Steps)
	for _, st := range sched.Steps {
		nWait += len(st.Wait)
		nSend += len(st.Send)
	}
	o := &OpState{seq: -1}
	tables := make([]int, 2*nWait+2*nSend+2*(nSteps+1))
	take := func(n int) []int {
		t := tables[:n:n]
		tables = tables[n:]
		return t
	}
	o.bitOf, o.waitEnd, o.sendEnd = take(nWait), take(nSteps+1), take(nSteps+1)
	o.sends, o.rankOf, o.sendOf = take(nSend), take(nWait), take(nSend)
	bit, k := 0, 0
	for i, st := range sched.Steps {
		for _, r := range st.Wait {
			o.rankOf[bit] = r
			o.bitOf[bit] = pair(r, bit)
			bit++
		}
		for _, dst := range st.Send {
			o.sends[k] = dst
			o.sendOf[k] = pair(dst, i)
			k++
		}
		o.waitEnd[i+1], o.sendEnd[i+1] = bit, k
	}
	sortPairs(o.bitOf, "waits twice on")
	sortPairs(o.sendOf, "sends twice to")
	words := (nWait + 63) / 64
	bits := make([]uint64, 2*words)
	o.arrived = BitVector{bits: bits[:words:words], n: nWait}
	o.early = BitVector{bits: bits[words:], n: nWait}
	return o
}

// Seq reports the active (or most recently completed) operation sequence;
// -1 before the first Start.
func (o *OpState) Seq() int { return o.seq }

// Active reports whether an operation is in flight.
func (o *OpState) Active() bool { return o.active }

// Step reports the current step index of the active operation.
func (o *OpState) Step() int { return o.step }

// steps reports the number of steps in the schedule.
func (o *OpState) steps() int { return len(o.waitEnd) - 1 }

// Start activates operation seq (which must be exactly the successor of
// the previous operation), replays any buffered early arrivals, and
// returns the ranks to notify immediately. completed is true when the
// schedule finishes without waiting (e.g. a single-rank group).
func (o *OpState) Start(seq int) (sends []int, completed bool, err error) {
	if o.active {
		return nil, false, fmt.Errorf("core: Start(%d) while op %d active", seq, o.seq)
	}
	if seq != o.seq+1 {
		return nil, false, fmt.Errorf("core: Start(%d) after op %d", seq, o.seq)
	}
	o.seq = seq
	o.active = true
	o.step = 0
	o.sent = 0
	o.arrived.copyFrom(&o.early)
	o.early.Clear()
	sends, completed = o.advance()
	return sends, completed, nil
}

// Arrive records a peer notification for operation seq. It returns the
// newly unblocked sends and whether the active operation completed.
// Arrivals for seq+1 are buffered; duplicates and stale arrivals are
// counted and ignored. The sends slice Start and Arrive return is
// read-only: it aliases the state machine's own send list.
func (o *OpState) Arrive(seq, fromRank int) (sends []int, completed bool, err error) {
	switch {
	case seq <= o.seq-1 || (seq == o.seq && !o.active):
		o.Stale++
		return nil, false, nil
	case seq == o.seq && o.active:
		bit, ok := lookup(o.bitOf, fromRank)
		if !ok {
			return nil, false, fmt.Errorf("core: arrival from unexpected rank %d", fromRank)
		}
		if !o.arrived.Set(bit) {
			o.Duplicates++
			return nil, false, nil
		}
		sends, completed = o.advance()
		return sends, completed, nil
	case seq == o.seq+1:
		bit, ok := lookup(o.bitOf, fromRank)
		if !ok {
			return nil, false, fmt.Errorf("core: early arrival from unexpected rank %d", fromRank)
		}
		if !o.early.Set(bit) {
			o.Duplicates++
		}
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("core: arrival for op %d while at op %d (impossible lookahead)", seq, o.seq)
	}
}

// advance issues the sends of every step it reaches and completes every
// step whose waits are satisfied. The steps it reaches are consecutive,
// so their sends are one contiguous, capacity-clipped window of o.sends:
// no copy, whatever the number of steps.
func (o *OpState) advance() (sends []int, completed bool) {
	nSteps := o.steps()
	from := o.sendEnd[o.sent]
	for o.step < nSteps {
		o.sent = o.step + 1
		if !o.arrived.allSet(o.waitEnd[o.step], o.waitEnd[o.step+1]) {
			break
		}
		o.step++
	}
	if to := o.sendEnd[o.sent]; to > from {
		sends = o.sends[from:to:to]
	}
	if o.step < nSteps {
		return sends, false
	}
	o.active = false
	return sends, true
}

// Abort force-quiesces the state machine after a deadline expiry: the
// active operation (if any) is abandoned without its missing arrivals
// and the early buffer is discarded, so teardown paths that refuse to
// run mid-operation (UninstallGroup, DisarmChain, session Close) become
// legal. The aborted sequence number stays consumed — its partial state
// is meaningless — and the caller must not restart the group: recovery
// installs a fresh group (new ID, fresh records) instead.
func (o *OpState) Abort() {
	o.active = false
	o.step = o.steps()
	o.early.Clear()
}

// AppendMissing appends to dst the peer ranks whose notifications for
// the active operation have not arrived — the NACK targets of
// receiver-driven retransmission — and returns the extended slice, so
// the NACK timer can reuse one buffer. It appends nothing when no
// operation is active.
func (o *OpState) AppendMissing(dst []int) []int {
	if !o.active {
		return dst
	}
	n := len(dst)
	dst = o.arrived.AppendMissing(dst)
	for i := n; i < len(dst); i++ {
		dst[i] = o.rankOf[dst[i]]
	}
	return dst
}

// HasSent reports whether this rank's notification to toRank for
// operation seq has already been transmitted (and so can be retransmitted
// in response to a NACK). Operations before the current one sent
// everything by construction.
func (o *OpState) HasSent(seq, toRank int) bool {
	step, sendsToRank := lookup(o.sendOf, toRank)
	if !sendsToRank {
		return false
	}
	switch {
	case seq < o.seq || (seq == o.seq && !o.active):
		return true
	case seq == o.seq:
		return step < o.sent
	default:
		return false
	}
}
