package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nicbarrier/internal/obs"
)

func bench(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestRunSingleFigure(t *testing.T) {
	code, out, errb := bench(t, "-fig", "packets")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{"packets", "Collective", "Direct(ACKed)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTSVFormat(t *testing.T) {
	code, out, errb := bench(t, "-fig", "packets", "-format", "tsv")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.HasPrefix(out, "N\t") {
		t.Fatalf("tsv output %.40q", out)
	}
}

func TestList(t *testing.T) {
	code, out, _ := bench(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"fig5", "summary", "faults-jitter"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, _, errb := bench(t, "-fig", "packets", "-cpuprofile", cpu, "-memprofile", mem)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
	if code, _, _ := bench(t, "-fig", "packets", "-cpuprofile", filepath.Join(dir, "no", "dir", "x")); code == 0 {
		t.Error("unwritable cpuprofile path accepted")
	}
	if code, _, _ := bench(t, "-fig", "packets", "-memprofile", filepath.Join(dir, "no", "dir", "x")); code == 0 {
		t.Error("unwritable memprofile path exited 0")
	}
}

func TestBadFlags(t *testing.T) {
	if code, _, _ := bench(t, "-fig", "no-such-figure"); code == 0 {
		t.Error("unknown figure accepted")
	}
	if code, _, _ := bench(t, "-fig", "packets", "-format", "xml"); code == 0 {
		t.Error("unknown format accepted")
	}
	if code, _, _ := bench(t, "-fig", "packets", "-fidelity", "extreme"); code == 0 {
		t.Error("unknown fidelity accepted")
	}
	if code, _, _ := bench(t, "-no-such-flag"); code == 0 {
		t.Error("unknown flag accepted")
	}
	if code, _, _ := bench(t, "-h"); code != 0 {
		t.Error("-h did not exit 0")
	}
}

func TestTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, out, errb := bench(t, "-fig", "fig6", "-trace", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	for _, want := range []string{"latency decomposition", "barrier", "trace written"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateChromeTrace(data); err != nil || n == 0 {
		t.Fatalf("exported trace invalid (%d events): %v", n, err)
	}
}

// TestTraceDeterministic checks that a traced figure writes the same
// file every time: parallel sweep workers create their scopes in a racy
// order, so two parallel runs and a serial one must still agree byte
// for byte.
func TestTraceDeterministic(t *testing.T) {
	dir := t.TempDir()
	var traces [][]byte
	for i, extra := range [][]string{nil, nil, {"-serial"}} {
		path := filepath.Join(dir, fmt.Sprintf("trace%d.json", i))
		args := append([]string{"-fig", "fig7", "-trace", path}, extra...)
		if code, _, errb := bench(t, args...); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errb)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, data)
	}
	for i := 1; i < len(traces); i++ {
		if !bytes.Equal(traces[0], traces[i]) {
			t.Errorf("trace %d differs from trace 0 (%d vs %d bytes)", i, len(traces[i]), len(traces[0]))
		}
	}
}
