package catalog

import (
	"strings"
	"testing"

	"nicbarrier"
)

func TestEntriesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Entries() {
		if seen[e.Name] {
			t.Errorf("duplicate entry name %q", e.Name)
		}
		seen[e.Name] = true
		set := 0
		if e.Runs != nil {
			set++
		}
		if e.Workload != nil {
			set++
		}
		if e.Churn != nil {
			set++
		}
		if set != 1 {
			t.Errorf("%s sets %d of runs/workload/churn, want exactly 1", e.Name, set)
		}
		if e.Desc == "" || e.Note == "" || e.Kind == "" {
			t.Errorf("%s lacks a description, note or kind", e.Name)
		}
	}
}

// Every entry, shrunk by the overrides, runs to completion and reports.
func TestEveryEntryRuns(t *testing.T) {
	o := Overrides{Ops: 4, Tenants: 12}
	for _, e := range Entries() {
		var out strings.Builder
		summary, err := e.Run(o, &out, func(msg string) { t.Errorf("%s: unexpected warning %s", e.Name, msg) })
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if summary == "" || !strings.Contains(out.String(), "note: ") {
			t.Errorf("%s: summary %q, report:\n%s", e.Name, summary, out.String())
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("all")
	if err != nil || len(all) != len(Entries()) {
		t.Fatalf("Select(all) = %d entries, %v", len(all), err)
	}
	got, err := Select("churn-live, lossy-myrinet")
	if err != nil || len(got) != 2 || got[0].Name != "churn-live" || got[1].Name != "lossy-myrinet" {
		t.Fatalf("Select kept neither names nor order: %v", err)
	}
	if _, err := Select("lossy-myrinet,no-such"); err == nil {
		t.Fatal("unknown name accepted")
	}
	if _, err := Select(""); err == nil {
		t.Fatal("empty selection accepted")
	}
}

// A fault plan that can block forever is reported before the run:
// the run itself would never return.
func TestWarnsOnUnboundedFault(t *testing.T) {
	cfg := nicbarrier.Config{Faults: []nicbarrier.Fault{nicbarrier.FaultCrash(5)}}
	var warned []string
	Overrides{}.config(cfg, "entry/run", func(msg string) { warned = append(warned, msg) })
	if len(warned) != 1 || !strings.HasPrefix(warned[0], "entry/run: warning: ") {
		t.Fatalf("warnings %q, want one for the unbounded crash", warned)
	}
}
