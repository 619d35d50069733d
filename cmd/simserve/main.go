// Command simserve hosts the live observability plane: it launches
// named runs from internal/catalog (the table cmd/simrun lists: fault
// scenarios, multi-tenant workloads, tenant churn) with a
// metronome-armed trace and serves their metrics over HTTP while they
// run.
//
// Endpoints:
//
//	/metrics   Prometheus text exposition (scrape it)
//	/snapshot  schema-versioned JSON snapshot (?run=<id|name>)
//	/stream    server-sent events, one snapshot per publication epoch
//	/runs      run registry with live progress
//	/healthz   liveness
//
// Examples:
//
//	simserve -list
//	simserve -addr :8077 -scenario churn-live
//	simserve -scenario all -loop            # soak: rerun forever, bumping seeds
//	curl -s localhost:8077/metrics | grep nicbarrier_ops_total
//	curl -s localhost:8077/snapshot | go run ./cmd/tracecheck -snapshot /dev/stdin
//
// Scenarios run sequentially on one goroutine; the server keeps serving
// their final published state after they finish. With -once the process
// exits when the launched scenarios complete (CI smoke mode).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"

	"nicbarrier"
	"nicbarrier/internal/catalog"
	"nicbarrier/internal/metricsrv"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8077", "HTTP listen address (host:port; port 0 picks a free one)")
	listOnly := fs.Bool("list", false, "list scenarios and exit")
	names := fs.String("scenario", "all",
		"comma-separated scenarios to launch (see -list), or \"all\"")
	metronome := fs.Float64("metronome", 50,
		"live-snapshot publication period in simulated microseconds (0 disables mid-run snapshots)")
	seed := fs.Uint64("seed", 1, "base cluster seed; -loop bumps it each round")
	loop := fs.Bool("loop", false, "rerun the scenarios forever, bumping the seed each round")
	once := fs.Bool("once", false, "exit when the launched scenarios complete (CI smoke mode)")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *listOnly {
		catalog.List(stdout)
		return 0
	}
	picked, err := catalog.Select(*names)
	if err != nil {
		fmt.Fprintf(stderr, "simserve: %v\n", err)
		return 1
	}
	if *loop && *once {
		fmt.Fprintln(stderr, "simserve: -loop and -once are mutually exclusive")
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "simserve: %v\n", err)
		return 1
	}
	srv := metricsrv.New()
	fmt.Fprintf(stdout, "simserve: listening on http://%s\n", ln.Addr())

	// Scenarios run sequentially on one goroutine: each gets its own
	// Trace (so /snapshot?run= views are disjoint) with the metronome
	// armed before any cluster exists.
	warn := func(msg string) { fmt.Fprintf(stderr, "simserve: %s\n", msg) }
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; ; round++ {
			for _, s := range picked {
				tr := nicbarrier.NewTrace()
				tr.SetMetronome(*metronome)
				name := s.Name
				if round > 0 {
					name = fmt.Sprintf("%s#%d", s.Name, round)
				}
				run := srv.Register(name, s.Kind, tr.Tracer())
				fmt.Fprintf(stdout, "simserve: run %d %q starting\n", run.ID, name)
				runSeed := *seed + uint64(round)
				summary, err := s.Run(catalog.Overrides{Seed: &runSeed, Trace: tr}, io.Discard, warn)
				run.Finish(summary, err)
				if err != nil {
					fmt.Fprintf(stderr, "simserve: run %d %q failed: %v\n", run.ID, name, err)
				} else {
					fmt.Fprintf(stdout, "simserve: run %d %q done: %s\n", run.ID, name, summary)
				}
			}
			if !*loop {
				return
			}
		}
	}()

	if *once {
		// Serve while the scenarios run, exit when they finish.
		go http.Serve(ln, srv.Handler())
		<-done
		ln.Close()
		fmt.Fprintln(stdout, "simserve: scenarios complete")
		return 0
	}
	if err := http.Serve(ln, srv.Handler()); err != nil {
		fmt.Fprintf(stderr, "simserve: %v\n", err)
		return 1
	}
	return 0
}
