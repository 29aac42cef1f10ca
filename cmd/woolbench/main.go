// Command woolbench regenerates the tables and figures of the paper's
// evaluation (Faxén, "Efficient Work Stealing for Fine Grained
// Parallelism", ICPP 2010).
//
// Usage:
//
//	woolbench [-scale quick|full] [experiment ...]
//	woolbench -list
//	woolbench -registryjson BENCH_registry.json
//	woolbench -perfgate BENCH_registry.json
//	woolbench [-scale quick|full] -stealsweep BENCH_steal.json
//	woolbench [-scale quick|full] -serve BENCH_serve.json
//
// With no experiment arguments every experiment runs in order. The
// multi-processor experiments run on the deterministic virtual-time
// simulator (see DESIGN.md for the substitution rationale);
// single-processor overhead ladders additionally run natively.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gowool/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "input scale: quick or full")
	list := flag.Bool("list", false, "list experiments and exit")
	registryJSON := flag.String("registryjson", "", "run the registry benchmarks (generic vs generated ladder, steal latency, fib(28) per backend, core idle-engine numbers) and write machine-readable results to FILE")
	perfgate := flag.String("perfgate", "", "re-measure the gated benchmark keys and fail on regression against the committed baseline FILE")
	stealsweep := flag.String("stealsweep", "", "run the steal-policy sweep (policy × amount × backend × workload natively, plus the sharded-topology simulator grid) and write machine-readable results to FILE; honours -scale")
	serveBench := flag.String("serve", "", "run the woolserve request-serving benchmark (throughput and latency percentiles per backend, with a mid-flight-cancellation mix) and write machine-readable results to FILE; honours -scale")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: woolbench [-scale quick|full] [experiment ...]\n\nexperiments:\n")
		for _, e := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %-8s %-12s %s\n", e.ID, e.Paper, e.Title)
		}
	}
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %-12s %s\n", e.ID, e.Paper, e.Title)
		}
		return
	}

	if *registryJSON != "" {
		if err := runRegistryBench(*registryJSON); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *perfgate != "" {
		if err := runPerfGate(*perfgate); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *stealsweep != "" {
		if err := runStealSweep(*stealsweep, scale == experiments.Full); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *serveBench != "" {
		if err := runServeBench(*serveBench, scale == experiments.Full); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("### %s (%s) — %s [scale=%s]\n\n", e.ID, e.Paper, e.Title, *scaleFlag)
		t0 := time.Now()
		if err := e.Run(scale, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
}
