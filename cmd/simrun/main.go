// Command simrun lists and runs the simulator's named runs: the
// internal/catalog table of fault-injection barrier measurements,
// multi-tenant workloads and group-lifecycle churn. Each entry prints
// its report and a closing note on what the numbers demonstrate.
//
// Examples:
//
//	simrun -list
//	simrun -scenario lossy-myrinet
//	simrun -scenario partition-heal -ops 200 -seed 7
//	simrun -scenario saturate-64,open-loop-burst -tenants 16
//	simrun -scenario queue-crunch -partitions 4
//	simrun -scenario all
//
// -ops replaces the measured iterations of barrier runs and the
// operations per tenant of workloads and churn; -tenants and
// -partitions apply to workload and churn entries only. -trace writes
// one Chrome trace-event JSON covering every selected run, which
// cmd/tracecheck validates (go run ./cmd/tracecheck <file>); workload
// reports then also print the per-op latency decomposition.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"nicbarrier"
	"nicbarrier/internal/catalog"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the named runs and exit")
	names := fs.String("scenario", "", `comma-separated runs to execute (see -list), or "all"`)
	ops := fs.Int("ops", 0, "override barrier iterations per run / operations per tenant")
	tenants := fs.Int("tenants", 0, "override the tenant count of workload and churn runs")
	partitions := fs.Int("partitions", 0,
		"run workloads and churn on this many parallel replica shards (0 or 1: single partition)")
	seed := fs.Uint64("seed", 0, "override the cluster seed (0 is a valid seed)")
	trace := fs.String("trace", "",
		"write a Chrome trace-event JSON of the runs to this file\n"+
			"(validate the output with: go run ./cmd/tracecheck <file>)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *list {
		catalog.List(stdout)
		return 0
	}
	if *names == "" {
		fmt.Fprintln(stderr, "simrun: pick -scenario <name>[,<name>...] or all, or -list")
		return 2
	}
	picked, err := catalog.Select(*names)
	if err != nil {
		fmt.Fprintf(stderr, "simrun: %v\n", err)
		return 1
	}

	o := catalog.Overrides{Ops: *ops, Tenants: *tenants, Partitions: *partitions}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			o.Seed = seed // 0 is a valid seed, so presence, not value, decides
		}
	})
	if *trace != "" {
		o.Trace = nicbarrier.NewTrace()
	}
	warn := func(msg string) { fmt.Fprintf(stderr, "simrun: %s\n", msg) }
	header := false
	for _, e := range picked {
		if e.Runs != nil && !header {
			catalog.BarrierHeader(stdout)
			header = true
		}
		if _, err := e.Run(o, stdout, warn); err != nil {
			fmt.Fprintf(stderr, "simrun: %s: %v\n", e.Name, err)
			return 1
		}
	}
	if o.Trace != nil {
		if err := o.Trace.WriteChromeFile(*trace); err != nil {
			fmt.Fprintf(stderr, "simrun: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *trace)
	}
	return 0
}
