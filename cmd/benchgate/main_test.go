package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nicbarrier/internal/benchreg"
	"nicbarrier/internal/harness"
)

// gate runs realMain with captured output.
func gate(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// smoke flags: two cheap scenarios, one repeat, tiny iteration counts.
// -warmup 0 doubles as a regression test for the zero-is-valid
// sentinel (the report must record warmup 0, not the fidelity default).
func runArgs(dir string) []string {
	return []string{"run", "-quick", "-scenario", "packets,fig6",
		"-repeats", "1", "-warmup", "0", "-iters", "10", "-out", dir}
}

func TestRunEmitsValidReport(t *testing.T) {
	dir := t.TempDir()
	code, out, errb := gate(t, runArgs(dir)...)
	if code != 0 {
		t.Fatalf("run exit %d: %s%s", code, out, errb)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if len(matches) != 1 {
		t.Fatalf("reports written: %v", matches)
	}
	rep, err := benchreg.ReadFile(matches[0])
	if err != nil {
		t.Fatalf("report unreadable: %v", err)
	}
	if !strings.Contains(out, "wrote ") || !strings.Contains(out, "2 scenarios") {
		t.Fatalf("run output %q", out)
	}
	if _, ok := rep.Metric("packets/Collective/n16"); !ok {
		t.Fatal("report missing packets metric")
	}
	if _, ok := rep.Metric("fig6/NIC-DS/n8"); !ok {
		t.Fatal("report missing fig6 metric")
	}
	if rep.Config.Warmup != 0 || rep.Config.Iters != 10 {
		t.Fatalf("-warmup 0 / -iters 10 not recorded: %+v", rep.Config)
	}
}

func TestCompareSelfPassesPerturbedFails(t *testing.T) {
	dir := t.TempDir()
	if code, _, errb := gate(t, runArgs(dir)...); code != 0 {
		t.Fatalf("run failed: %s", errb)
	}
	report := func() string {
		m, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		return m[0]
	}()

	code, out, _ := gate(t, "compare", "-baseline", report, "-current", report)
	if code != 0 || !strings.Contains(out, "perf gate: ok") {
		t.Fatalf("self-compare exit %d:\n%s", code, out)
	}

	// Perturb one simulated metric by 10% and expect a gate failure.
	rep, err := benchreg.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Metrics {
		if rep.Metrics[i].Name == "fig6/NIC-DS/n8" {
			rep.Metrics[i].Value *= 1.10
		}
	}
	perturbed := filepath.Join(dir, "perturbed.json")
	if err := rep.WriteFile(perturbed); err != nil {
		t.Fatal(err)
	}
	code, out, _ = gate(t, "compare", "-baseline", report, "-current", perturbed)
	if code != 1 {
		t.Fatalf("perturbed compare exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "FAIL") || !strings.Contains(out, "fig6/NIC-DS/n8") {
		t.Fatalf("failure output:\n%s", out)
	}
}

func TestUpdateBaselineFrom(t *testing.T) {
	dir := t.TempDir()
	if code, _, errb := gate(t, runArgs(dir)...); code != 0 {
		t.Fatalf("run failed: %s", errb)
	}
	m, _ := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	baseline := filepath.Join(dir, "bench", "baseline.json")
	code, out, errb := gate(t, "update-baseline", "-from", m[0], "-out", baseline)
	if code != 0 {
		t.Fatalf("update-baseline exit %d: %s%s", code, out, errb)
	}
	if _, err := benchreg.ReadFile(baseline); err != nil {
		t.Fatalf("baseline unreadable: %v", err)
	}
	// A run gated against its own adopted baseline passes.
	code, out, _ = gate(t, "compare", "-baseline", baseline, "-current", m[0])
	if code != 0 {
		t.Fatalf("compare against adopted baseline exit %d:\n%s", code, out)
	}
}

func TestBadUsage(t *testing.T) {
	if code, _, _ := gate(t); code == 0 {
		t.Fatal("no subcommand accepted")
	}
	if code, _, _ := gate(t, "frobnicate"); code == 0 {
		t.Fatal("unknown subcommand accepted")
	}
	if code, _, _ := gate(t, "compare"); code == 0 {
		t.Fatal("compare without -current accepted")
	}
	if code, _, _ := gate(t, "run", "-scenario", "no-such-scenario", "-out", t.TempDir()); code == 0 {
		t.Fatal("unknown scenario accepted")
	}
	if code, _, _ := gate(t, "run", "-scenario", "fig5,fig5", "-out", t.TempDir()); code == 0 {
		t.Fatal("duplicate scenario accepted")
	}
	if code, _, _ := gate(t, "run", "-h"); code != 0 {
		t.Fatal("-h did not exit 0")
	}
	if code, _, _ := gate(t, "run", "-fidelity", "bogus", "-out", t.TempDir()); code == 0 {
		t.Fatal("unknown fidelity accepted")
	}
	if code, _, _ := gate(t, "run", "-quick", "-fidelity", "paper", "-out", t.TempDir()); code == 0 {
		t.Fatal("-quick with -fidelity paper accepted")
	}
	if code, _, _ := gate(t, "compare", "-baseline", "/does/not/exist.json", "-current", "/nor/this.json"); code == 0 {
		t.Fatal("missing files accepted")
	}
}

// The committed baseline must stay schema-valid and cover every
// registered scenario — this is the test face of the CI perf gate's
// contract.
func TestCommittedBaselineCoversAllScenarios(t *testing.T) {
	path := filepath.Join("..", "..", "bench", "baseline.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	rep, err := benchreg.ReadFile(path)
	if err != nil {
		t.Fatalf("committed baseline invalid: %v", err)
	}
	scens := map[string]bool{}
	for _, m := range rep.Metrics {
		scens[strings.SplitN(m.Name, "/", 2)[0]] = true
	}
	for _, id := range harness.Experiments() {
		if !scens[id] {
			t.Errorf("baseline has no metrics for scenario %q — refresh it with `benchgate update-baseline`", id)
		}
	}
}

// TestAllocBudgetsCoverBaseline checks that every scenario's
// allocations-per-event metric in the committed baseline has a budget,
// and that the trajectory snapshot the budgets were taken from meets
// them under the default policy.
func TestAllocBudgetsCoverBaseline(t *testing.T) {
	pol := benchreg.DefaultPolicy()
	base, err := benchreg.ReadFile(filepath.Join("..", "..", "bench", "baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range base.Metrics {
		if _, ok := pol.Budgets.Caps[m.Name]; m.Unit == "allocs/ev" && !ok {
			t.Errorf("%s has no allocation budget", m.Name)
		}
	}
	snap, err := benchreg.ReadFile(filepath.Join("..", "..", "bench", "trajectory", "BENCH_9b751cb080e8.json"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := benchreg.Compare(base, snap, pol)
	if err != nil {
		t.Fatal(err)
	}
	budgeted := 0
	for _, d := range res.Deltas {
		if d.Budget != 0 {
			budgeted++
			if d.Regressed {
				t.Errorf("%s: %.4f over its budget %.2f", d.Name, d.Cur, d.Budget)
			}
		}
	}
	if budgeted != len(pol.Budgets.Caps) {
		t.Errorf("%d budgeted metrics compared, want %d", budgeted, len(pol.Budgets.Caps))
	}
}
