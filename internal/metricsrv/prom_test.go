package metricsrv

import (
	"bytes"
	"strings"
	"testing"

	"nicbarrier/internal/obs"
)

func TestPromEscape(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`plain`, `plain`},
		{`a"b`, `a\"b`},
		{"a\nb", `a\nb`},
		{`a\b`, `a\\b`},
		{"q\"\\\n", `q\"\\\n`},
	} {
		if got := promEscape(tc.in); got != tc.want {
			t.Errorf("promEscape(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// Two scopes with one name in one run still export distinct series.
func TestPromScopeNamesUnique(t *testing.T) {
	tr := obs.NewTracer()
	tr.NewScope("xp 16n")
	tr.NewScope("xp 16n")
	run := New().Register("r", "fault", tr)
	run.Finish("", nil)
	var buf bytes.Buffer
	WritePrometheus(&buf, []*Run{run})
	seen := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		if seen[series] {
			t.Errorf("duplicate series %s", series)
		}
		seen[series] = true
	}
	if !seen[`nicbarrier_records_total{run="r",scope="xp 16n#2"}`] {
		t.Errorf("repeat scope not numbered:\n%s", buf.String())
	}
}
