package core

import (
	"fmt"

	"nicbarrier/internal/sim"
)

// Loop is the run bookkeeping every backend session shares: the
// measurement loop of the paper's Section 8 ("processes execute
// consecutive barrier operations") without the interconnect. It
// launches consecutive operations over a fixed set of ranks, chains each
// rank's next post off its completion (honoring NextAt), stamps
// first-post and completion times, and guards the launch/reset/close/
// abort lifecycle. The backend supplies start, which posts one operation
// on one rank, and reports completions through Complete. Backend
// sessions embed a Loop and call Init once; it must not be copied after.
type Loop struct {
	eng   *sim.Engine
	name  string // diagnostic prefix: backend and scheme
	start func(rank, seq int)
	// gated loops start operation k+1 only once every rank has completed
	// k (used for broadcast, which does not self-synchronize); the others
	// chain per rank, as real benchmark loops do.
	gated bool
	// valued loops keep one outcome per operation and rank (allreduce).
	valued bool
	defers []deferral // per rank, allocated once

	iters   int
	doneAt  []sim.Time // completion time per operation of this run
	startAt []sim.Time // first post per operation of this run, -1 until posted
	pending []int      // per operation of this run, ranks not yet complete
	results [][]int64  // per operation and rank, on valued loops
	// base is the absolute operation sequence this run starts at: NIC
	// group state numbers operations monotonically across runs, so after
	// Reset absolute sequence s is run-local operation s-base.
	base   int
	closed bool
	// aborted marks a loop whose run was cancelled mid-flight (deadline
	// expiry). The only legal next step is Close: recovery installs a
	// fresh session rather than restarting this one, since surviving
	// ranks' sequence windows may disagree about the aborted operation.
	aborted bool
	// gen counts run generations (bumped by Launch, Reset and Abort).
	// Complete snapshots it around OnIterDone: a callback that resets and
	// relaunches the loop, as the churn engine's hooks do, voids the old
	// run's chained posts, which must not leak into the new run.
	gen int

	// NextAt, when set before Launch, gates when a rank may post
	// operation `next` (run-local): the returned virtual time is the
	// earliest post instant (times at or before "now" post immediately,
	// preserving the default back-to-back loop). Workload engines use it
	// to shape open-loop arrival processes and closed-loop think times.
	NextAt func(rank, next int) sim.Time
	// OnIterDone, when set, observes each operation's global completion
	// (all ranks done) at the virtual time it happens.
	OnIterDone func(iter int, at sim.Time)
}

// deferral is one rank's NextAt-deferred post, scheduled as its own
// sim.Event so deferring allocates nothing. A rank's operations chain,
// so at most one is outstanding.
type deferral struct {
	l     *Loop
	rank  int
	seq   int
	timer sim.Timer // a fired or zero timer cancels as a no-op
}

// Fire implements sim.Event: post the deferred operation.
func (d *deferral) Fire() { d.l.begin(d.rank, d.seq) }

// Init readies l for size ranks on eng. name prefixes diagnostics;
// start posts absolute operation seq on one rank. gated selects
// whole-group chaining, valued a per-run result table (see Results).
func (l *Loop) Init(eng *sim.Engine, name string, size int, gated, valued bool, start func(rank, seq int)) {
	l.eng, l.name, l.start, l.gated, l.valued = eng, name, start, gated, valued
	l.defers = make([]deferral, size)
	for r := range l.defers {
		l.defers[r] = deferral{l: l, rank: r}
	}
}

// Launch prepares iters consecutive operations and posts the first on
// every rank without driving the engine; callers multiplexing several
// sessions launch them all, then run the engine until each is Done.
func (l *Loop) Launch(iters int) {
	l.arm(iters)
	for r := range l.defers {
		l.post(r, l.base)
	}
}

// LaunchSkewed launches a single operation whose ranks enter after the
// given per-rank delays. Every entry is scheduled on the engine, even a
// zero delay, and NextAt is not consulted.
func (l *Loop) LaunchSkewed(skew []sim.Duration) {
	if len(skew) != len(l.defers) {
		panic(fmt.Sprintf("%s: %d offsets for %d ranks", l.name, len(skew), len(l.defers)))
	}
	l.arm(1)
	seq := l.base
	for r, d := range skew {
		l.eng.After(d, func() { l.begin(r, seq) })
	}
}

// arm checks the lifecycle and allocates a fresh run's bookkeeping.
func (l *Loop) arm(iters int) {
	if iters < 1 {
		panic(fmt.Sprintf("%s: iterations %d", l.name, iters))
	}
	if l.closed {
		panic(l.name + ": Launch on a closed session")
	}
	if l.aborted {
		panic(l.name + ": Launch on an aborted session (install a new one)")
	}
	if l.iters != 0 {
		panic(l.name + ": session launched twice (Reset between runs)")
	}
	l.gen++
	l.iters = iters
	l.doneAt = make([]sim.Time, iters)
	l.startAt = make([]sim.Time, iters)
	for i := range l.startAt {
		l.startAt[i] = -1
	}
	l.pending = make([]int, iters)
	for i := range l.pending {
		l.pending[i] = len(l.defers)
	}
	if l.valued {
		l.results = make([][]int64, iters)
		for i := range l.results {
			l.results[i] = make([]int64, len(l.defers))
		}
	}
}

// Reset readies a finished loop for another Launch; the backend's group
// stays installed and its sequence space continues.
func (l *Loop) Reset() {
	if l.aborted {
		panic(l.name + ": Reset on an aborted session (install a new one)")
	}
	if l.iters > 0 && !l.Done() {
		panic(l.name + ": Reset mid-run")
	}
	l.gen++
	l.base += l.iters
	l.iters = 0
	l.doneAt, l.startAt, l.pending, l.results = nil, nil, nil, nil
}

// Close marks the loop torn down, panicking when closed twice or while
// operations are in flight; the backend releases its NIC state itself.
func (l *Loop) Close() {
	if l.closed {
		panic(l.name + ": session closed twice")
	}
	if l.iters > 0 && !l.Done() {
		panic(l.name + ": Close mid-run (drain the launched iterations first)")
	}
	l.closed = true
}

// Abort cancels the current run mid-flight: NextAt deferrals are
// cancelled, the run bookkeeping is discarded and late completions are
// ignored; the only legal next step is Close. It reports whether a run
// was in flight (idle, finished and closed loops abort as a no-op).
func (l *Loop) Abort() bool {
	if l.closed || l.iters == 0 || l.Done() {
		return false
	}
	l.aborted = true
	l.gen++ // void any in-flight OnIterDone-chained posts
	for r := range l.defers {
		l.defers[r].timer.Cancel()
		l.defers[r].timer = sim.Timer{}
	}
	l.iters = 0
	l.doneAt, l.startAt, l.pending, l.results = nil, nil, nil, nil
	return true
}

// Base is the absolute sequence of the current run's first operation.
func (l *Loop) Base() int { return l.base }

// post starts absolute operation seq on rank, honoring the NextAt gate
// (which sees run-local operation numbers).
func (l *Loop) post(rank, seq int) {
	if l.NextAt != nil {
		if at := l.NextAt(rank, seq-l.base); at > l.eng.Now() {
			d := &l.defers[rank]
			d.seq = seq
			d.timer = l.eng.ScheduleEvent(at, d)
			return
		}
	}
	l.begin(rank, seq)
}

// begin stamps the operation's first post and hands it to the backend.
func (l *Loop) begin(rank, seq int) {
	if rel := seq - l.base; rel >= 0 && rel < len(l.startAt) && l.startAt[rel] < 0 {
		l.startAt[rel] = l.eng.Now()
	}
	l.start(rank, seq)
}

// Done reports whether every launched operation completed on every rank.
func (l *Loop) Done() bool {
	return l.iters > 0 && l.pending[l.iters-1] == 0
}

// DoneAt returns the completion time per operation (valid once Done).
func (l *Loop) DoneAt() []sim.Time { return l.doneAt }

// StartAt returns, per operation of the current run, the virtual time
// the first rank posted it (-1 if not yet posted): before it is queue
// wait, from it to DoneAt in-flight time.
func (l *Loop) StartAt() []sim.Time { return l.startAt }

// Results returns the outcome per operation and rank of a valued loop's
// current run (allreduce); nil otherwise.
func (l *Loop) Results() [][]int64 { return l.results }

// Size reports the number of participating ranks.
func (l *Loop) Size() int { return len(l.defers) }

// Run executes iters consecutive operations and returns each one's
// completion time, panicking if the simulation deadlocks.
func (l *Loop) Run(iters int) []sim.Time {
	l.Launch(iters)
	if !l.eng.RunCondition(l.Done) {
		panic(fmt.Sprintf("%s barrier deadlocked (%d ranks, pending %v)", l.name, len(l.defers), l.pending))
	}
	return l.doneAt
}

// MeanLatency runs warmup+iters operations and reports the mean latency
// of the measured ones, as the paper's methodology does.
func (l *Loop) MeanLatency(warmup, iters int) sim.Duration {
	doneAt := l.Run(warmup + iters)
	var start sim.Time
	if warmup > 0 {
		start = doneAt[warmup-1]
	}
	return doneAt[warmup+iters-1].Sub(start) / sim.Duration(iters)
}

// Record stores rank's outcome of absolute operation seq on a valued
// loop (a no-op otherwise), before its Complete so OnIterDone sees it.
func (l *Loop) Record(rank, seq int, v int64) {
	if rel := seq - l.base; l.results != nil && rel < len(l.results) {
		l.results[rel][rank] = v
	}
}

// Complete records rank's completion of absolute operation seq and
// chains the next post: per rank, or for every rank once the whole group
// completed on gated loops.
func (l *Loop) Complete(rank, seq int) {
	if l.aborted {
		return // late completion racing the abort; the run is void
	}
	rel := seq - l.base
	if rel >= l.iters {
		panic(fmt.Sprintf("%s: completion for iteration %d beyond %d", l.name, rel, l.iters))
	}
	l.pending[rel]--
	if l.pending[rel] < 0 {
		panic(fmt.Sprintf("%s: double completion of iteration %d by rank %d", l.name, rel, rank))
	}
	gen := l.gen
	if l.pending[rel] == 0 {
		l.doneAt[rel] = l.eng.Now()
		if l.OnIterDone != nil {
			l.OnIterDone(rel, l.doneAt[rel])
		}
		if l.gen != gen {
			return // the callback reset the loop; this run's posts are void
		}
		if l.gated && rel+1 < l.iters {
			for r := range l.defers {
				l.post(r, seq+1)
			}
		}
	}
	if !l.gated && rel+1 < l.iters {
		l.post(rank, seq+1)
	}
}
