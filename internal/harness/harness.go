// Package harness defines and runs the paper's experiments: one
// constructor per figure (Figs. 5-8), the Section-8 headline summary
// table, and the two ablations the paper argues from (direct-scheme
// comparison and packet-count halving). Each experiment builds fresh
// simulated clusters per data point, runs the paper's measurement loop
// (warmup + averaged consecutive barriers, random node permutation), and
// renders results as aligned tables or TSV for plotting.
//
// Data points are independent simulations, so sweeps fan out over a
// bounded pool of goroutines — the one place this repository uses real
// parallelism — while staying bit-deterministic for a given seed.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"nicbarrier/internal/obs"
	"nicbarrier/internal/sim"
)

// Config controls the measurement loop.
type Config struct {
	// Warmup iterations are run and discarded; Iters are averaged.
	Warmup, Iters int
	// Seed drives node permutations (and nothing else; the simulators
	// are deterministic).
	Seed uint64
	// Permute randomizes node placement per point, as the paper does.
	Permute bool
	// Parallel fans data points out over a worker pool.
	Parallel bool
	// Trace, when non-nil, collects packet-lifecycle records, NIC
	// events and wire/NIC time attribution from every measured data
	// point (one scope per point). Tracing is observational only, so
	// measured latencies are bit-identical with or without it; scope
	// creation is synchronized, so parallel sweeps may share a tracer.
	Trace *obs.Tracer
}

// Quick is the configuration used by tests and the default CLI: small
// iteration counts, identical shapes.
func Quick() Config {
	return Config{Warmup: 5, Iters: 60, Seed: 1, Permute: true, Parallel: true}
}

// PaperFidelity matches the paper's loop: 100 warmup iterations and
// 10,000 measured iterations (scaled down automatically for very large
// simulated clusters).
func PaperFidelity() Config {
	return Config{Warmup: 100, Iters: 10000, Seed: 1, Permute: true, Parallel: true}
}

// ConfigFor maps a fidelity name to its measurement configuration —
// the one place the fidelity vocabulary is defined, shared by every
// CLI front end.
func ConfigFor(fidelity string) (Config, error) {
	switch fidelity {
	case "quick":
		return Quick(), nil
	case "paper":
		return PaperFidelity(), nil
	default:
		return Config{}, fmt.Errorf("harness: unknown fidelity %q (quick|paper)", fidelity)
	}
}

// itersFor caps the iteration count for big clusters so 1024-node sweeps
// stay tractable; latencies converge within a handful of iterations
// because the simulators are deterministic.
func (c Config) itersFor(n int) (warmup, iters int) {
	warmup, iters = c.Warmup, c.Iters
	if n > 64 {
		scale := n / 64
		if warmup > 20 {
			warmup = 20
		}
		iters = max(8, iters/scale)
	}
	return warmup, iters
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Point is one (cluster size, latency) measurement.
type Point struct {
	N         int
	LatencyUS float64
}

// Series is one curve of a figure.
type Series struct {
	Name   string
	Points []Point
	// Unit overrides the figure's unit for this series — mixed-unit
	// figures (e.g. a throughput curve next to latency percentiles)
	// need per-series units in machine-readable reports.
	Unit string
}

// Figure is a reproduced paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	// Unit is the measurement unit of every point, used when the figure
	// is flattened into a machine-readable report. Empty means
	// simulated microseconds ("sim_us").
	Unit   string
	Series []Series
	Notes  []string
}

// Measure produces the latency (in microseconds) for one cluster size.
type Measure func(n int) float64

// forEach runs fn(i) for i in [0, n), fanning out over a GOMAXPROCS
// worker pool when cfg.Parallel is set — the one parallel-dispatch
// primitive every sweep in the package shares.
func forEach(cfg Config, n int, fn func(i int)) {
	if !cfg.Parallel {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// sweep evaluates fn over ns, optionally in parallel. Results keep the
// order of ns.
func sweep(cfg Config, name string, ns []int, fn Measure) Series {
	pts := make([]Point, len(ns))
	forEach(cfg, len(ns), func(i int) {
		pts[i] = Point{N: ns[i], LatencyUS: fn(ns[i])}
	})
	return Series{Name: name, Points: pts}
}

// permutedIDs picks the node IDs for an n-rank group out of a
// clusterSize-node cluster, randomly permuted when cfg.Permute is set.
// The RNG is seeded per (seed, clusterSize, n, salt) so points are
// independent and reproducible.
func permutedIDs(cfg Config, clusterSize, n int, salt uint64) []int {
	if n > clusterSize {
		panic(fmt.Sprintf("harness: %d ranks on a %d-node cluster", n, clusterSize))
	}
	if !cfg.Permute {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	rng := sim.NewRNG(cfg.Seed ^ uint64(clusterSize)<<32 ^ uint64(n)<<16 ^ salt)
	return rng.Perm(clusterSize)[:n]
}

// Table renders the figure as an aligned text table, one row per cluster
// size, one column per series.
func (f Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	// One unit for the whole table goes in the axis line; a mixed-unit
	// figure gets a unit row under the column names instead.
	units := make([]string, len(f.Series))
	mixed := false
	for i, s := range f.Series {
		units[i] = displayUnit(s.Unit, f.Unit)
		mixed = mixed || units[i] != units[0]
	}
	if mixed {
		fmt.Fprintf(&b, "%s vs %s\n", f.YLabel, f.XLabel)
	} else {
		fmt.Fprintf(&b, "%s vs %s (%s)\n", f.YLabel, f.XLabel, displayUnit("", f.Unit))
	}

	// Collect the union of Ns, sorted.
	set := map[int]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			set[p.N] = true
		}
	}
	ns := make([]int, 0, len(set))
	for n := range set {
		ns = append(ns, n)
	}
	sort.Ints(ns)

	fmt.Fprintf(&b, "%6s", "N")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %14s", s.Name)
	}
	b.WriteByte('\n')
	if mixed {
		fmt.Fprintf(&b, "%6s", "unit")
		for _, u := range units {
			fmt.Fprintf(&b, " %14s", u)
		}
		b.WriteByte('\n')
	}
	for _, n := range ns {
		fmt.Fprintf(&b, "%6d", n)
		for _, s := range f.Series {
			v, ok := s.value(n)
			if !ok {
				fmt.Fprintf(&b, " %14s", "-")
				continue
			}
			fmt.Fprintf(&b, " %14.2f", v)
		}
		b.WriteByte('\n')
	}
	for _, note := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// displayUnit is the unit a table shows for a series with unit
// seriesUnit in a figure with unit figUnit: the series' own, else the
// figure's, with simulated microseconds (the empty default) shown as
// "us".
func displayUnit(seriesUnit, figUnit string) string {
	u := seriesUnit
	if u == "" {
		u = figUnit
	}
	if u == "" || u == "sim_us" {
		return "us"
	}
	return u
}

// TSV renders the figure as tab-separated values for plotting tools.
func (f Figure) TSV() string {
	var b strings.Builder
	b.WriteString("N")
	for _, s := range f.Series {
		b.WriteByte('\t')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	set := map[int]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			set[p.N] = true
		}
	}
	ns := make([]int, 0, len(set))
	for n := range set {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	for _, n := range ns {
		fmt.Fprintf(&b, "%d", n)
		for _, s := range f.Series {
			b.WriteByte('\t')
			if v, ok := s.value(n); ok {
				fmt.Fprintf(&b, "%.3f", v)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (s Series) value(n int) (float64, bool) {
	for _, p := range s.Points {
		if p.N == n {
			return p.LatencyUS, true
		}
	}
	return 0, false
}

// Stats summarizes per-iteration latencies of one measured run.
type Stats struct {
	MeanUS, MinUS, MaxUS, StdUS float64
	Iterations                  int
}

// LatencyStats derives per-iteration statistics from the completion
// timestamps a session run returns, discarding warmup iterations.
func LatencyStats(doneAt []sim.Time, warmup int) Stats {
	if warmup >= len(doneAt) {
		panic(fmt.Sprintf("harness: warmup %d >= %d iterations", warmup, len(doneAt)))
	}
	var lats []float64
	prev := sim.Time(0)
	if warmup > 0 {
		prev = doneAt[warmup-1]
	}
	for _, at := range doneAt[warmup:] {
		lats = append(lats, at.Sub(prev).Micros())
		prev = at
	}
	st := Stats{Iterations: len(lats), MinUS: math.Inf(1), MaxUS: math.Inf(-1)}
	var sum float64
	for _, l := range lats {
		sum += l
		if l < st.MinUS {
			st.MinUS = l
		}
		if l > st.MaxUS {
			st.MaxUS = l
		}
	}
	st.MeanUS = sum / float64(len(lats))
	var ss float64
	for _, l := range lats {
		d := l - st.MeanUS
		ss += d * d
	}
	st.StdUS = math.Sqrt(ss / float64(len(lats)))
	return st
}
