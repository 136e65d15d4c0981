// Command pretzel-bench regenerates the tables and figures of the
// PRETZEL paper's evaluation (§5). Each experiment prints the same rows
// or series the paper reports; -list prints the index.
//
// Usage:
//
//	pretzel-bench -exp fig9            # one experiment at full scale
//	pretzel-bench -exp deadline        # deadline-aware scheduling shed rates
//	pretzel-bench -exp overload        # open-loop goodput/shed/p99 across capacity
//	pretzel-bench -exp all -quick      # everything at reduced scale
//	pretzel-bench -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pretzel/internal/bench"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment id (or 'all')")
		quick = flag.Bool("quick", false, "reduced scale (fast, smoke-level numbers)")
		list  = flag.Bool("list", false, "list experiment ids and exit")
		out   = flag.String("out", "", "also write output to this file")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	env := bench.FullEnv()
	if *quick {
		env = bench.QuickEnv()
	}
	defer func() {
		if env.ModelDir != "" {
			os.RemoveAll(env.ModelDir)
		}
	}()

	run := func(id string) {
		if err := bench.Run(w, env, id); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			os.Exit(1)
		}
	}
	if *exp == "all" {
		for _, e := range bench.Experiments() {
			run(e.ID)
		}
		return
	}
	run(*exp)
}
