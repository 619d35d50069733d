// Command tracecheck validates the observability layer's export
// formats. Its default mode checks Chrome trace-event JSON files
// produced by the -trace flags of barrier-bench and simrun: each file
// must be a JSON object with a traceEvents array whose events carry the
// fields chrome://tracing requires (phase, pid, and per-phase timing
// fields). With -snapshot it instead validates
// schema-versioned metric snapshots as served by the metrics service's
// /snapshot endpoint (cmd/simserve): schema version, epoch accounting,
// drop-reason totals, histogram-bin consistency and quantile ordering.
// CI runs it over every exported artifact so a schema regression fails
// the build instead of surfacing as a blank trace window or a silently
// wrong dashboard.
//
// Usage:
//
//	tracecheck out.json [more.json ...]
//	tracecheck -snapshot snap.json [more.json ...]
//	curl -s localhost:8077/snapshot | tracecheck -snapshot /dev/stdin
//
// Exit status 0 when every file validates, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nicbarrier/internal/obs"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	snapshot := fs.Bool("snapshot", false,
		"validate metric snapshot JSON (the /snapshot schema) instead of Chrome traces")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(stderr, "usage: tracecheck [-snapshot] <file.json> [more.json ...]")
		return 2
	}
	bad := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "tracecheck: %v\n", err)
			bad++
			continue
		}
		if *snapshot {
			n, err := obs.ValidateSnapshotJSON(data)
			if err != nil {
				fmt.Fprintf(stderr, "tracecheck: %s: %v\n", path, err)
				bad++
				continue
			}
			fmt.Fprintf(stdout, "%s: ok, schema v%d, %d scopes\n",
				path, obs.SnapshotSchemaVersion, n)
			continue
		}
		n, err := obs.ValidateChromeTrace(data)
		if err != nil {
			fmt.Fprintf(stderr, "tracecheck: %s: %v\n", path, err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "%s: ok, %d events\n", path, n)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
