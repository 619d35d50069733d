package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nicbarrier/internal/obs"
)

func sr(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

// mustRun runs simrun and fails the test on a non-zero exit.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, errb := sr(t, args...)
	if code != 0 {
		t.Fatalf("simrun %v: exit %d: %s", args, code, errb)
	}
	return out
}

func wantAll(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestListScenarios(t *testing.T) {
	wantAll(t, mustRun(t, "-list"),
		"lossy-myrinet", "partition-heal", "quadrics-loss-immune", // barrier runs
		"churn-live", "lossy-chaos", "[chaos]") // simserve's entries list too
}

func TestListWorkloadScenarios(t *testing.T) {
	wantAll(t, mustRun(t, "-list"),
		"saturate-64", "mixed-collectives", "open-loop-burst", "quadrics-tenants")
}

func TestListChurnScenarios(t *testing.T) {
	wantAll(t, mustRun(t, "-list"),
		"queue-crunch", "reconfigure-heavy", "spread-placement", "quadrics-churn", "think-time-mix")
}

func TestRunBarrierScenario(t *testing.T) {
	wantAll(t, mustRun(t, "-scenario", "throttled-myrinet", "-ops", "5"),
		"throttled-myrinet", "25MBps", "mean(us)", "note:")
}

func TestDropBreakdownLine(t *testing.T) {
	wantAll(t, mustRun(t, "-scenario", "lossy-myrinet", "-ops", "20"),
		"injected=", "midroute=", "rejected=", "stale=")
}

func TestRunWorkloadScenario(t *testing.T) {
	wantAll(t, mustRun(t, "-scenario", "mixed-collectives", "-ops", "8"),
		"mixed-collectives", "aggregate", "fairness", "p99(us)", "note:")
}

func TestRunQueueCrunch(t *testing.T) {
	wantAll(t, mustRun(t, "-scenario", "queue-crunch", "-tenants", "20", "-ops", "5"),
		"completed  20 tenants", "lifecycle", "installs", "admission", "queued", "note:")
}

// Barrier rows share one column header however many barrier entries
// run, whatever runs between them.
func TestBarrierHeaderOnce(t *testing.T) {
	out := mustRun(t, "-scenario", "throttled-myrinet,saturate-64,slow-nic", "-ops", "3")
	if n := strings.Count(out, "mean(us)"); n != 1 {
		t.Fatalf("barrier header printed %d times, want 1:\n%s", n, out)
	}
}

func TestOverrides(t *testing.T) {
	wantAll(t, mustRun(t, "-scenario", "saturate-64", "-tenants", "4", "-ops", "5", "-seed", "9"),
		"4 tenants x 5 ops")
	wantAll(t, mustRun(t, "-scenario", "reconfigure-heavy", "-tenants", "6", "-ops", "3", "-partitions", "2"),
		"6 tenants x 3 ops", "completed  6 tenants, 18 ops")
	out := mustRun(t, "-scenario", "throttled-myrinet", "-ops", "7", "-tenants", "3")
	if !strings.Contains(out, "      7 ") {
		t.Errorf("-ops did not set the barrier iterations:\n%s", out)
	}
}

func TestBadTenantOverride(t *testing.T) {
	// 99 tenants cannot partition the 64-node cluster into groups of 2+.
	if code, _, _ := sr(t, "-scenario", "saturate-64", "-tenants", "99"); code == 0 {
		t.Error("unfittable tenant override accepted")
	}
}

// -seed 0 is a seed like any other: it must change the run, while an
// explicit -seed 1 reproduces the entries' default.
func TestSeedZeroApplies(t *testing.T) {
	for _, name := range []string{"open-loop-burst", "queue-crunch", "lossy-myrinet"} {
		args := []string{"-scenario", name, "-tenants", "16", "-ops", "5"}
		def := mustRun(t, args...)
		if zero := mustRun(t, append(args, "-seed", "0")...); zero == def {
			t.Errorf("%s: -seed 0 gave the default run", name)
		}
		if one := mustRun(t, append(args, "-seed", "1")...); one != def {
			t.Errorf("%s: -seed 1 differs from the default run", name)
		}
	}
}

func TestBadUsage(t *testing.T) {
	if code, _, _ := sr(t); code == 0 {
		t.Error("no selection accepted")
	}
	if code, _, _ := sr(t, "-scenario", "no-such"); code == 0 {
		t.Error("unknown scenario accepted")
	}
	if code, _, _ := sr(t, "-scenario", "saturate-64,no-such"); code == 0 {
		t.Error("unknown scenario in a list accepted")
	}
	if code, _, _ := sr(t, "-h"); code != 0 {
		t.Error("-h did not exit 0")
	}
}

// Exit codes: 1 for an unknown run, 2 for a usage error (a bad flag
// or no selection at all).
func TestBadFlagsAndScenario(t *testing.T) {
	if code, _, _ := sr(t, "-scenario", "nope"); code != 1 {
		t.Errorf("unknown scenario exit %d, want 1", code)
	}
	if code, _, _ := sr(t); code != 2 {
		t.Errorf("no selection exit %d, want 2", code)
	}
	if code, _, _ := sr(t, "-bogus"); code != 2 {
		t.Errorf("bad flag exit %d, want 2", code)
	}
}

// One trace covers every selected run: workloads add the latency
// decomposition, churn its swap latencies, and the file validates.
func TestTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out := mustRun(t, "-scenario", "throttled-myrinet,saturate-64,reconfigure-heavy", "-ops", "5", "-trace", path)
	wantAll(t, out, "decomp", "queue(us)", "wire(us)", "nic(us)", "swap-lat", "pre ", "post ", "trace written")
	validTrace(t, path)
}

func TestTraceFlagAndSwapLatencies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	wantAll(t, mustRun(t, "-scenario", "reconfigure-heavy", "-trace", path),
		"swap-lat", "pre ", "post ", "trace written")
	validTrace(t, path)
}

func validTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateChromeTrace(data); err != nil || n == 0 {
		t.Fatalf("exported trace invalid (%d events): %v", n, err)
	}
}
