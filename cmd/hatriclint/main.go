// Command hatriclint statically enforces the simulator's determinism and
// zero-allocation contracts: it loads the requested packages (test
// variants included), type-checks them against compiler export data, and
// runs the three analyzers in internal/lint — mapiter, nondet and
// hotalloc — after the annotation-syntax check, annot.
//
// Usage:
//
//	go run ./cmd/hatriclint ./...
//
// -test=false skips test files. -analyzers prints the analyzer list and
// exits 0 without linting anything.
//
// Exit status is 0 when the tree is clean, 1 when any diagnostic is
// reported, and 2 when loading or type-checking fails. See the
// internal/lint package documentation for the contract each analyzer
// encodes and the //hatric: annotation forms that suppress findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"hatric/internal/lint"
)

func main() {
	var (
		tests = flag.Bool("test", true, "also analyze test variants of the matched packages")
		list  = flag.Bool("analyzers", false, "list the analyzers and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: hatriclint [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns, *tests)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hatriclint: %v\n", err)
		os.Exit(2)
	}
	diags, err := lint.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hatriclint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hatriclint: %d finding(s) in %d package(s) analyzed\n",
			len(diags), len(pkgs))
		os.Exit(1)
	}
}
