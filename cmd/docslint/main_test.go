package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nicbarrier/internal/benchreg"
)

// A stale "N metrics" count in the checked documents is a violation; a
// count matching the baseline is not.
func TestLintMetricCounts(t *testing.T) {
	root := t.TempDir()
	base := &benchreg.Report{Schema: benchreg.Schema, Metrics: []benchreg.Metric{
		{Name: "a", Unit: "pkts", Value: 1}, {Name: "b", Unit: "pkts", Value: 2}}}
	if err := os.MkdirAll(filepath.Join(root, "bench"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := base.WriteFile(filepath.Join(root, "bench", "baseline.json")); err != nil {
		t.Fatal(err)
	}
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(root, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("README.md", "The gate compares 2 metrics.\n")
	write("ARCHITECTURE.md", "intro\nthe 3-metric baseline and its 2-metric subset\n")
	got := lintMetricCounts(root)
	if len(got) != 1 || !strings.HasPrefix(got[0], "ARCHITECTURE.md:2:") || !strings.Contains(got[0], `"3-metric"`) {
		t.Fatalf("violations %q, want one for ARCHITECTURE.md:2 \"3-metric\"", got)
	}
}

// A ./cmd/<name> path is a violation unless cmd/<name> is a directory.
func TestLintCmdPaths(t *testing.T) {
	root := t.TempDir()
	for _, dir := range []string{"cmd/simrun", ".github/workflows"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(root, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("README.md", "go run ./cmd/simrun -list\n")
	write("ARCHITECTURE.md", "see `./cmd/simrun/main.go`\n")
	write(".github/workflows/ci.yml", "steps:\n  - run: go run ./cmd/retired -all\n")
	got := lintCmdPaths(root)
	if len(got) != 1 || !strings.HasPrefix(got[0], ".github/workflows/ci.yml:2:") || !strings.Contains(got[0], `"./cmd/retired"`) {
		t.Fatalf("violations %q, want one for ci.yml:2 \"./cmd/retired\"", got)
	}
}
