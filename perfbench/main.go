// Command perfbench measures how fast and how lean the simulator is, on
// three workloads that stress different layers, while checking every
// simulated result against the repository's oracle (bench/baseline.json
// and the values pinned in pins.json).
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash perfbench/run.sh --workload paper-8node --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a separate traced pass (CPU profile plus event observers).
// See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name (paper-8node, tenants-2048-lossy, hier-16k)")
	seed := flag.Uint64("seed", 1, "seed for rank placements, tenant plans and loss draws")
	seconds := flag.Float64("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced pass")
	record := flag.Int("record-pins", 0, "print pins.json with the workload's results for seeds 0..N-1 re-recorded, and exit")
	flag.Parse()

	w, ok := lookup(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", names())
		os.Exit(2)
	}
	or, err := loadOracle("bench/baseline.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *record > 0 {
		if err := recordPins(w, or, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := or.tenantPin(w.shape, *seed); w.shape != "" && w.seeded && !ok {
		fmt.Fprintf(os.Stderr, "perfbench: no pins for %s seed %d; checking completion and allreduce results only\n",
			w.name, *seed)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var rep report
	if *trace == 1 {
		rep, err = runTraced(w, or, *seed, dur)
	} else {
		var ins []instance
		ins, err = measure(w, or, *seed, false, dur)
		rep = endToEnd(ins)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// instance is one complete run of a workload — cluster build, group
// install, simulation, oracle check — as seen from the host.
type instance struct {
	cluster, install time.Duration    // set-up phases up to the first simulated event, in the instance thread's CPU time
	run              time.Duration    // simulation, from the first event to the result, in process CPU time
	attempted        int64            // rank-operations issued: a collective over g ranks counts g
	completed        int64            // rank-operations completed with a correct result
	allocs, bytes    uint64           // heap objects and bytes allocated by the run phase
	heap             uint64           // GC-settled live heap the built simulation holds
	calibration      time.Duration    // CPU time of the calibration kernel just before the instance
	profile          map[string]int64 // traced: CPU nanoseconds by layer of the leaf frame
	runtime          runtimeStats     // traced: the Go runtime's counters over the instance
	counts           counts           // deterministic per-layer work counters
	pin              any              // the simulated values pins.json records (tenantPin, hierPin)
	err              error            // oracle mismatch: every rank-operation counts as failed
}

func (in instance) setup() time.Duration { return in.cluster + in.install }

// failed reports the instance's failed rank-operations.
func (in instance) failed() int64 {
	if in.err != nil {
		return in.attempted
	}
	return in.attempted - in.completed
}

// measure runs instances of w back to back until d has elapsed (at
// least one). Traced instances run under a CPU profile each, which
// leaves the calibration kernel and the collections between instances
// out of it.
func measure(w workload, or *oracle, seed uint64, traced bool, d time.Duration) ([]instance, error) {
	runtime.LockOSThread() // set-up is timed in this thread's CPU time
	defer runtime.UnlockOSThread()
	var out []instance
	for end := time.Now().Add(d); len(out) == 0 || time.Now().Before(end); {
		runtime.GC()
		cal := calibrate()
		runtime.GC() // a collected start, so each instance's heap figures count only what it built
		e := env{seed: seed, traced: traced, oracle: or}
		var in instance
		if traced {
			var err error
			if in, err = profiled(w, e); err != nil {
				return nil, err
			}
		} else {
			in = w.instance(e)
		}
		in.calibration = cal
		if in.err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, seed, in.err)
		}
		out = append(out, in)
	}
	return out, nil
}

// recordPins re-records w's pinned results, one instance per seed in
// [0, n) (one instance when the workload ignores the seed), and prints
// the updated pins.json. Use it only after a change that is meant to
// move simulated results.
func recordPins(w workload, or *oracle, n int) error {
	if w.shape == "" {
		return fmt.Errorf("%s is checked against bench/baseline.json; it has no pins", w.name)
	}
	if !w.seeded {
		n = 1
	}
	delete(or.pins.Tenants, w.shape)
	delete(or.pins.Hier, w.shape)
	recorded := map[string]tenantPin{}
	for seed := uint64(0); seed < uint64(n); seed++ {
		in := w.instance(env{seed: seed, oracle: or})
		if in.err != nil && !errors.Is(in.err, errNoPin) {
			return fmt.Errorf("seed %d: %w", seed, in.err)
		}
		switch p := in.pin.(type) {
		case tenantPin:
			recorded[strconv.FormatUint(seed, 10)] = p
		case hierPin:
			or.pins.Hier[w.shape] = p
		}
	}
	if len(recorded) > 0 {
		or.pins.Tenants[w.shape] = recorded
	}
	out, err := json.MarshalIndent(or.pins, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func tally(ins []instance) report {
	rep := report{Correct: true, Metrics: map[string]metric{}}
	for _, in := range ins {
		rep.Attempted += in.attempted
		rep.Failed += in.failed()
		if in.err != nil {
			rep.Correct = false
		}
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	return rep
}

// endToEnd derives the user-facing metrics from untraced instances.
// Rates and times are at the reference speed (see calibrate) and are
// medians over instances, so one instance disturbed by the host does
// not move the figure.
func endToEnd(ins []instance) report {
	rep := tally(ins)
	var rates, setups, heaps []float64
	var allocs uint64
	var completed int64
	for _, in := range ins {
		rates = append(rates, float64(in.completed)/in.atRef(in.run))
		setups = append(setups, in.atRef(in.setup()))
		heaps = append(heaps, float64(in.heap)/(1<<20))
		allocs += in.allocs
		completed += in.completed
	}
	rep.Metrics["rank_ops_per_s"] = metric{median(rates), "1/s"}
	rep.Metrics["setup_s"] = metric{median(setups), "s"}
	rep.Metrics["heap_mb"] = metric{median(heaps), "MiB"}
	rep.Metrics["allocs_per_op"] = metric{ratio(float64(allocs), float64(completed)), "count"}
	rep.Metrics["completed_frac"] = metric{1 - ratio(float64(rep.Failed), float64(rep.Attempted)), "frac"}
	return rep
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when there is nothing to divide by (a layer the
// workload does not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
