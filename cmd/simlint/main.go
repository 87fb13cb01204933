// Command simlint runs the simulator's custom invariant analyzers (see
// internal/lint): nondeterministic map iteration, wall-clock/global-RNG
// use, hot-path allocations, interprocedural spine reachability and
// hotpath-annotation drift, shared-state confinement, RNG-stream
// discipline, free-list contract violations, and the alloc-per-event
// scheduling shims. From the module root:
//
//	go run ./cmd/simlint ./...
//
// Packages are analyzed in dependency order through one fact session,
// so the interprocedural analyzers see the whole cross-package call
// graph; a run over ./... also checks annotation drift.
//
// Flags: -only a,b limits the analyzers; -list prints them; -list-spine
// prints every function transitively reachable from the
// //simlint:hotpath roots (the audited spine); -json emits diagnostics
// as a {package: {analyzer: [diagnostic]}} tree; -C sets the directory
// go list runs from.
// Exit status: 0 clean, 1 diagnostics found, 2 tool failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	listSpine := flag.Bool("list-spine", false, "print the hot-path spine (every function reachable from //simlint:hotpath roots) and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON ({package: {analyzer: [diagnostic]}})")
	dir := flag.String("C", ".", "directory to run go list from (the module root)")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	rep, err := lint.Run(*dir, analyzers, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		os.Exit(2)
	}

	if *listSpine {
		for _, fn := range rep.Spine {
			fmt.Println(fn)
		}
		return
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, rep.Diags); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			os.Exit(2)
		}
		if len(rep.Diags) > 0 {
			os.Exit(1)
		}
		return
	}

	exit := 0
	for _, d := range rep.Diags {
		fmt.Println(d)
		exit = 1
	}
	os.Exit(exit)
}
