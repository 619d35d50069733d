package benchreg

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Threshold bounds how far a metric may move before the gate fails. A
// movement is tolerated if it is within Rel·|baseline| OR within Abs —
// the effective tolerance is the larger of the two, so tiny baselines
// (where any relative bound collapses to ~0) are governed by Abs and
// large ones by Rel.
type Threshold struct {
	Rel float64 `json:"rel"` // relative fraction, e.g. 0.02 = 2%
	Abs float64 `json:"abs"` // absolute, in the metric's unit
}

// Policy is the comparator configuration: a default threshold, per-unit
// and per-metric overrides, units that never gate, directionality, and
// the noise multiplier applied to observed repeat spread.
type Policy struct {
	// Default applies when no per-unit or per-metric override matches.
	Default Threshold
	// PerUnit overrides the default for every metric of a unit.
	PerUnit map[string]Threshold
	// PerMetric overrides everything else. A key ending in "/" is a
	// prefix match ("fig8a/" covers the whole figure); otherwise exact.
	PerMetric map[string]Threshold
	// Informational units are reported but never fail the gate
	// (wall-clock ns/op on shared CI runners is too noisy to gate).
	Informational map[string]bool
	// HigherIsBetter marks units where an increase is an improvement
	// (the summary table's "x" paper-improvement ratios). All other
	// units treat an increase as a regression.
	HigherIsBetter map[string]bool
	// Exact marks units where any move beyond tolerance fails in
	// either direction: a packet count that *drops* is not an
	// improvement, it is the protocol silently not sending traffic it
	// should.
	Exact map[string]bool
	// Budgets caps metrics by name, whatever the baseline holds.
	Budgets Budgets
	// NoiseMult widens the tolerance by NoiseMult × the larger repeat
	// spread of the two reports, so a metric that is visibly noisy in
	// either run cannot flap the gate.
	NoiseMult float64
	// FailOnMissing fails the gate when a baseline metric is absent
	// from the current report — a vanished scenario is a regression in
	// coverage, not a cleanup.
	FailOnMissing bool
}

// DefaultPolicy gates simulated metrics tightly — they are
// bit-deterministic per seed, so anything beyond float wiggle is a real
// protocol change — and treats wall-clock metrics as informational.
func DefaultPolicy() Policy {
	return Policy{
		Default: Threshold{Rel: 0.02, Abs: 0.05},
		PerUnit: map[string]Threshold{
			// Packet counts are exact integers per barrier.
			"pkts": {Rel: 0, Abs: 0.01},
			// Paper-improvement ratios compound two measurements.
			"x": {Rel: 0.05, Abs: 0.02},
		},
		// Wall-clock behavior varies with the machine. "speedup" is
		// measured wall-clock speedup of the sharded runs — as
		// host-dependent as the wall times it is derived from (its
		// deterministic sibling, the load-balance bound, gates under
		// unit "x"). "B/ep" (live-heap bytes per endpoint) is host-side
		// footprint: tracked in every report next to wall time, never a
		// gate — GC timing and allocator layout make it run-to-run
		// noisy. Allocations per event ("allocs/ev") repeat to about
		// 1e-5, so they gate, each scenario against its budget.
		Informational: map[string]bool{"ns/op": true, "ns/ev": true, "speedup": true, "B/ep": true},
		// Throughput ("kops/s") and fairness ("jain") come from the
		// multi-tenant scenarios: deterministic per seed, and more is
		// better for both.
		HigherIsBetter: map[string]bool{"x": true, "kops/s": true, "jain": true},
		Exact:          map[string]bool{"pkts": true},
		Budgets:        allocBudgets,
		NoiseMult:      2,
		FailOnMissing:  true,
	}
}

// Budgets caps metrics by name. A capped metric fails the gate when it
// exceeds its cap (widened by NoiseMult × its repeat spread), and is not
// held to the baseline's threshold in the worse direction. Caps hold
// only for reports measured with Loop's fidelity, warmup and iterations,
// since how much set-up a run amortizes moves per-event costs; reports
// measured otherwise hold the metric to the baseline instead.
type Budgets struct {
	Loop RunConfig
	Caps map[string]float64
}

// threshold resolves the policy for one metric.
func (p Policy) threshold(m Metric) Threshold {
	var prefix string
	th, found := Threshold{}, false
	for k, v := range p.PerMetric {
		if k == m.Name {
			return v
		}
		if strings.HasSuffix(k, "/") && strings.HasPrefix(m.Name, k) && len(k) > len(prefix) {
			prefix, th, found = k, v, true
		}
	}
	if found {
		return th
	}
	if v, ok := p.PerUnit[m.Unit]; ok {
		return v
	}
	return p.Default
}

// Delta is the comparison of one metric across two reports.
type Delta struct {
	Name string  `json:"name"`
	Unit string  `json:"unit"`
	Base float64 `json:"base"`
	Cur  float64 `json:"cur"`
	// Rel is (cur-base)/|base|; NaN when the baseline is zero.
	Rel float64 `json:"rel"`
	// Tolerance is the effective absolute tolerance applied, including
	// the noise widening.
	Tolerance float64 `json:"tolerance"`
	// Regressed: the metric moved in the worse direction beyond
	// tolerance, and its unit gates.
	Regressed bool `json:"regressed"`
	// Improved: moved in the better direction beyond tolerance.
	Improved bool `json:"improved"`
	// Informational: the unit never gates; Regressed is always false.
	Informational bool `json:"informational"`
	// Budget is the cap the metric is held to (Policy.Budgets), 0 when
	// it has none.
	Budget float64 `json:"budget,omitempty"`
}

// Result is a full report-vs-baseline comparison.
type Result struct {
	BaselineRev string  `json:"baseline_rev"`
	CurrentRev  string  `json:"current_rev"`
	Deltas      []Delta `json:"deltas"`
	// Missing metrics exist in the baseline but not the current report.
	Missing []string `json:"missing,omitempty"`
	// New metrics exist in the current report but not the baseline;
	// they pass the gate and should be folded in via update-baseline.
	New []string `json:"new,omitempty"`
	// MissingFails records whether the policy gates on Missing.
	MissingFails bool `json:"missing_fails"`
}

// Failed reports whether the gate should reject the current report.
func (r Result) Failed() bool {
	if r.MissingFails && len(r.Missing) > 0 {
		return true
	}
	for _, d := range r.Deltas {
		if d.Regressed {
			return true
		}
	}
	return false
}

// Regressions returns the failing deltas, worst relative move first.
func (r Result) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return math.Abs(out[i].Rel) > math.Abs(out[j].Rel)
	})
	return out
}

// Compare evaluates the current report against the baseline under the
// policy. Metrics are matched by name; each matched pair gets a
// tolerance of max(Abs, Rel·|base|) + NoiseMult·max(spreads), and fails
// only when the value moves beyond it in the worse direction for its
// unit.
func Compare(baseline, current *Report, pol Policy) (Result, error) {
	if err := baseline.Validate(); err != nil {
		return Result{}, fmt.Errorf("baseline: %w", err)
	}
	if err := current.Validate(); err != nil {
		return Result{}, fmt.Errorf("current: %w", err)
	}
	// Reports measured under different configs differ everywhere for
	// legitimate reasons; refuse to blame the protocol for that.
	if err := compatible(baseline, current); err != nil {
		return Result{}, err
	}
	res := Result{
		BaselineRev:  baseline.GitRev,
		CurrentRev:   current.GitRev,
		MissingFails: pol.FailOnMissing,
	}
	cur := make(map[string]Metric, len(current.Metrics))
	for _, m := range current.Metrics {
		cur[m.Name] = m
	}
	for _, bm := range baseline.Metrics {
		cm, ok := cur[bm.Name]
		if !ok {
			res.Missing = append(res.Missing, bm.Name)
			continue
		}
		delete(cur, bm.Name)
		if cm.Unit != bm.Unit {
			return Result{}, fmt.Errorf("benchreg: metric %q changed unit %q -> %q (refresh the baseline)",
				bm.Name, bm.Unit, cm.Unit)
		}
		th := pol.threshold(bm)
		tol := th.Abs
		if rel := th.Rel * math.Abs(bm.Value); rel > tol {
			tol = rel
		}
		tol += pol.NoiseMult * math.Max(bm.Spread, cm.Spread)
		diff := cm.Value - bm.Value
		worse := diff > 0
		if pol.HigherIsBetter[bm.Unit] {
			worse = diff < 0
		}
		d := Delta{
			Name:          bm.Name,
			Unit:          bm.Unit,
			Base:          bm.Value,
			Cur:           cm.Value,
			Rel:           relDelta(bm.Value, cm.Value),
			Tolerance:     tol,
			Informational: pol.Informational[bm.Unit],
		}
		// Informational units take neither flag: flagging their noise
		// as "better" (while suppressing the symmetric worse moves)
		// would make CI logs read as systematic improvements.
		budget, capped := pol.Budgets.Caps[bm.Name]
		capped = capped && sameLoop(current.Config, pol.Budgets.Loop)
		switch {
		case d.Informational:
		case capped:
			d.Budget = budget
			d.Regressed = cm.Value > budget+pol.NoiseMult*cm.Spread
			d.Improved = !d.Regressed && diff < -tol
		case math.Abs(diff) > tol:
			if worse || pol.Exact[bm.Unit] {
				d.Regressed = true
			} else {
				d.Improved = true
			}
		}
		res.Deltas = append(res.Deltas, d)
	}
	for name := range cur {
		res.New = append(res.New, name)
	}
	sort.Strings(res.Missing)
	sort.Strings(res.New)
	sort.Slice(res.Deltas, func(i, j int) bool { return res.Deltas[i].Name < res.Deltas[j].Name })
	return res, nil
}

// compatible errors when the two reports were measured under different
// loops: seed, fidelity, or iteration counts. Repeats and scenario
// lists may differ (the comparator handles those as noise and
// missing/new metrics respectively).
func compatible(baseline, current *Report) error {
	if baseline.Seed != current.Seed {
		return fmt.Errorf("benchreg: baseline seed %d vs current seed %d — rerun with the baseline's seed",
			baseline.Seed, current.Seed)
	}
	b, c := baseline.Config, current.Config
	if !sameLoop(b, c) {
		return fmt.Errorf("benchreg: measurement loops differ (baseline %s %dw/%di vs current %s %dw/%di) — rerun with matching -fidelity/-warmup/-iters",
			b.Fidelity, b.Warmup, b.Iters, c.Fidelity, c.Warmup, c.Iters)
	}
	return nil
}

// sameLoop reports whether two configs measured the same loop.
func sameLoop(a, b RunConfig) bool {
	return a.Fidelity == b.Fidelity && a.Warmup == b.Warmup && a.Iters == b.Iters
}

func relDelta(base, cur float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return (cur - base) / math.Abs(base)
}

// Render formats the comparison for humans: regressions first, then
// improvements, missing/new metrics, and a one-line verdict. With all
// set, every delta is listed.
func (r Result) Render(all bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "baseline %s vs current %s: %d metrics compared\n",
		r.BaselineRev, r.CurrentRev, len(r.Deltas))
	row := func(tag string, d Delta) {
		rel := "n/a"
		if !math.IsNaN(d.Rel) {
			rel = fmt.Sprintf("%+.2f%%", d.Rel*100)
		}
		limit := fmt.Sprintf("tol ±%.3f", d.Tolerance)
		if d.Budget != 0 {
			limit = fmt.Sprintf("budget %.3f", d.Budget)
		}
		fmt.Fprintf(&b, "  %-8s %-40s %12.3f -> %12.3f %-6s %8s (%s)\n",
			tag, d.Name, d.Base, d.Cur, d.Unit, rel, limit)
	}
	for _, d := range r.Regressions() {
		row("FAIL", d)
	}
	for _, d := range r.Deltas {
		if d.Improved {
			row("better", d)
		} else if all && !d.Regressed {
			row("ok", d)
		}
	}
	for _, m := range r.Missing {
		tag := "MISSING"
		if !r.MissingFails {
			tag = "missing"
		}
		fmt.Fprintf(&b, "  %-8s %s (in baseline, not in current)\n", tag, m)
	}
	for _, m := range r.New {
		fmt.Fprintf(&b, "  %-8s %s (not in baseline; update-baseline to adopt)\n", "new", m)
	}
	if r.Failed() {
		fmt.Fprintf(&b, "perf gate: FAIL (%d regressions, %d missing)\n",
			len(r.Regressions()), len(r.Missing))
	} else {
		fmt.Fprintf(&b, "perf gate: ok\n")
	}
	return b.String()
}
