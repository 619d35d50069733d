package core

import (
	"fmt"

	"nicbarrier/internal/barrier"
)

// ReduceOp is the combining operator of a NIC-based allreduce. The
// paper's future work asks "whether other collective communication
// operations could benefit from similar NIC-level implementations"
// (Section 9, citing Moody et al.'s NIC-based reduction); a single-word
// allreduce is the natural first one: the operand fits the same static
// packet as the barrier integer, and the combining happens in the
// operation's send record, so the whole collective protocol machinery —
// group queue, bit vector, receiver-driven NACK — carries over unchanged.
type ReduceOp int

// Supported combining operators.
const (
	ReduceSum ReduceOp = iota
	ReduceMin
	ReduceMax
)

// String implements fmt.Stringer.
func (op ReduceOp) String() string {
	switch op {
	case ReduceSum:
		return "sum"
	case ReduceMin:
		return "min"
	case ReduceMax:
		return "max"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(op))
	}
}

// Idempotent reports whether combining a value twice is harmless.
func (op ReduceOp) Idempotent() bool { return op == ReduceMin || op == ReduceMax }

// Combine applies the operator.
func (op ReduceOp) Combine(a, b int64) int64 {
	switch op {
	case ReduceSum:
		return a + b
	case ReduceMin:
		if b < a {
			return b
		}
		return a
	case ReduceMax:
		if b > a {
			return b
		}
		return a
	default:
		panic(fmt.Sprintf("core: unknown reduce op %d", int(op)))
	}
}

// ReduceState turns a barrier schedule into an allreduce. Every
// notification carries the sender's partial value. Two rules make the
// result exact for non-idempotent operators:
//
//  1. Step-ordered folding. The value transmitted with a step-s send is
//     the local contribution combined with the arrivals of steps BEFORE
//     s only — in a butterfly, partners exchange partials over disjoint
//     rank sets, so an arrival buffered early (for a step not yet
//     reached) must not leak into earlier snapshots. ReduceState
//     therefore stores arrival values per sender and folds them in
//     schedule-step order on demand.
//
//  2. Snapshot retransmission. A NACK-triggered resend must carry the
//     originally transmitted snapshot (SentValue), never the current
//     partial, which may meanwhile include the receiver's own
//     contribution.
//
// Steps marked ResultWait (the broadcast-down phase of gather-broadcast)
// carry the final result and replace the fold instead of combining.
//
// Exactness holds for pairwise exchange at any size, gather-broadcast,
// and dissemination at powers of two (each step combines a disjoint
// window of predecessors); dissemination at other sizes wraps its windows
// and double-counts, so NewReduceState rejects sum there. Idempotent
// operators work over any complete schedule.
type ReduceState struct {
	op    ReduceOp
	st    *OpState
	sched barrier.Schedule

	local    int64
	valueOf  map[int]int64 // arrival values of the active operation
	waitStep map[int]int   // sender rank -> step index waiting on it
	sendStep map[int]int   // destination rank -> step index sending to it
	pending  map[int]int64 // buffered values of early (seq+1) arrivals

	// sent records the transmitted snapshot per destination for the
	// current and previous operation (receivers lag by at most one).
	sent map[int]map[int]int64
}

// CheckReduce returns an error when op cannot be exact over an n-rank
// schedule of algorithm alg.
func CheckReduce(op ReduceOp, alg barrier.Algorithm, n int) error {
	if op == ReduceSum && alg == barrier.Dissemination && !barrier.IsPowerOfTwo(n) {
		return fmt.Errorf("core: sum-allreduce over dissemination needs a power-of-two group, got %d", n)
	}
	return nil
}

// NewReduceState builds an allreduce state machine over a schedule. It
// returns an error when the (operator, schedule) combination cannot be
// exact.
func NewReduceState(op ReduceOp, sched barrier.Schedule) (*ReduceState, error) {
	if err := CheckReduce(op, sched.Algorithm, sched.N); err != nil {
		return nil, err
	}
	r := &ReduceState{
		op:       op,
		st:       NewOpState(sched),
		sched:    sched,
		valueOf:  make(map[int]int64),
		waitStep: make(map[int]int),
		sendStep: make(map[int]int),
		pending:  make(map[int]int64),
		sent:     make(map[int]map[int]int64),
	}
	for i, step := range sched.Steps {
		for _, w := range step.Wait {
			r.waitStep[w] = i
		}
		for _, d := range step.Send {
			r.sendStep[d] = i
		}
	}
	return r, nil
}

// Op reports the combining operator.
func (r *ReduceState) Op() ReduceOp { return r.op }

// Inner exposes the wrapped OpState (sequence numbers, NACK bookkeeping).
func (r *ReduceState) Inner() *OpState { return r.st }

// fold combines the local contribution with the (arrived) values of all
// steps before uptoStep, in schedule order, honoring ResultWait replace
// semantics.
func (r *ReduceState) fold(uptoStep int) int64 {
	val := r.local
	for s := 0; s < uptoStep && s < len(r.sched.Steps); s++ {
		step := r.sched.Steps[s]
		for _, w := range step.Wait {
			v, arrived := r.valueOf[w]
			if !arrived {
				continue
			}
			if step.ResultWait {
				val = v
			} else {
				val = r.op.Combine(val, v)
			}
		}
	}
	return val
}

// Value reports the full fold — the allreduce result once the operation
// has completed.
func (r *ReduceState) Value() int64 { return r.fold(len(r.sched.Steps)) }

// SentValue reports the value snapshot that was transmitted to toRank for
// operation seq — what a NACK-triggered retransmission must carry.
func (r *ReduceState) SentValue(seq, toRank int) (int64, bool) {
	v, ok := r.sent[seq][toRank]
	return v, ok
}

// recordSends snapshots, for each outgoing notification, the fold up to
// (but excluding) its step, and prunes snapshots older than the previous
// operation.
func (r *ReduceState) recordSends(seq int, sends []int) {
	if len(sends) == 0 {
		return
	}
	m := r.sent[seq]
	if m == nil {
		m = make(map[int]int64)
		r.sent[seq] = m
	}
	for _, to := range sends {
		m[to] = r.fold(r.sendStep[to])
	}
	delete(r.sent, seq-2)
}

// Start begins operation seq with this rank's local contribution and
// returns the ranks to notify; the value each notification must carry is
// SentValue(seq, rank).
func (r *ReduceState) Start(seq int, local int64) (sends []int, completed bool, err error) {
	r.local = local
	clear(r.valueOf)
	sends, completed, err = r.st.Start(seq)
	if err != nil {
		return nil, false, err
	}
	for from, v := range r.pending {
		// Early arrivals are always contributions: a result message
		// presupposes our own contribution reached its sender, which
		// requires this Start to have already happened.
		r.valueOf[from] = v
		delete(r.pending, from)
	}
	r.recordSends(seq, sends)
	return sends, completed, nil
}

// Arrive records a peer's value for operation seq and advances the
// schedule. Duplicates (NACK-recovered retransmissions that raced the
// original) are detected by the bit vector and never combined twice.
func (r *ReduceState) Arrive(seq, fromRank int, value int64) (sends []int, completed bool, err error) {
	dupsBefore := r.st.Duplicates + r.st.Stale
	active := r.st.Active() && r.st.Seq() == seq
	future := seq == r.st.Seq()+1
	sends, completed, err = r.st.Arrive(seq, fromRank)
	if err != nil {
		return nil, false, err
	}
	if r.st.Duplicates+r.st.Stale > dupsBefore {
		return sends, completed, nil // duplicate or stale: drop the value
	}
	switch {
	case active:
		r.valueOf[fromRank] = value
		r.recordSends(seq, sends)
	case future:
		if r.sched.Steps[r.waitStep[fromRank]].ResultWait {
			return nil, false, fmt.Errorf(
				"core: result message from rank %d arrived before operation %d started", fromRank, seq)
		}
		r.pending[fromRank] = value
	}
	return sends, completed, nil
}
