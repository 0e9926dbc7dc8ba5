package main

// The trace subcommand analyzes a Chrome trace-event JSON written by
// deepum-sim -trace: it validates the schema and the trace's physical
// invariants (non-overlapping link transfers, consistent prefetch
// accounting), then prints the offline reduction — link utilisation,
// fault-batch size histogram, prefetch lead-time distribution, eviction
// classification, per-kernel table.
//
//	deepum-sim -model bert-base -batch 8 -trace run.json
//	deepum-inspect trace run.json
//
// Exit status: 0 on a clean trace, 1 on I/O errors, 2 when the file is
// not a valid deepum trace or an invariant is violated.

import (
	"fmt"
	"os"

	"deepum/internal/obs"
)

func runTrace(args []string) {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: deepum-inspect trace <trace.json>")
		os.Exit(1)
	}
	f, err := os.Open(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	events, err := obs.ReadChromeTrace(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "deepum-inspect: %s: %v\n", args[0], err)
		os.Exit(2)
	}
	if err := obs.Check(events); err != nil {
		fmt.Fprintf(os.Stderr, "deepum-inspect: %s: invariant violated: %v\n", args[0], err)
		os.Exit(2)
	}
	fmt.Print(obs.Analyze(events).String())
}
