// Command skipper-bench regenerates the paper's tables, figures and the
// ablations (22 ids; -list prints them).
//
// Usage:
//
//	skipper-bench -list
//	skipper-bench -exp fig7 [-scale tiny|small|full] [-seed N] [-spike-pack]
//	skipper-bench -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"skipper/internal/bench"
	"skipper/internal/cli"
)

func main() {
	var (
		exp   = flag.String("exp", "", "experiment id (see -list), or 'all'")
		scale = flag.String("scale", "small", "run scale: tiny | small | full")
		seed  = flag.Uint64("seed", 1, "experiment seed")
		pack  = flag.Bool("spike-pack", false, "run workload measurements with bit-packed spike compute (bit-identical results)")
		list  = flag.Bool("list", false, "list available experiments")
		debug = flag.String("debug-addr", "", "serve net/http/pprof on this address while experiments run")
	)
	flag.Parse()

	if dbg, err := cli.StartDebug(*debug, nil); err != nil {
		cli.Fatal(err)
	} else if dbg != "" {
		fmt.Printf("debug server on http://%s/debug/pprof/\n", dbg)
	}

	if *list || *exp == "" {
		fmt.Println("Available experiments (paper table/figure ids and ablations):")
		for _, id := range bench.IDs() {
			e, _ := bench.Get(id)
			fmt.Printf("  %-18s %s\n", id, e.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nuse -exp <id> (or -exp all) to run one")
			os.Exit(2)
		}
		return
	}

	sc, err := bench.ParseScale(*scale)
	if err != nil {
		cli.Fatal(err)
	}
	cfg := bench.RunConfig{Scale: sc, Seed: *seed, SpikePack: *pack}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.IDs()
	} else if strings.Contains(*exp, ",") {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		e, err := bench.Get(strings.TrimSpace(id))
		if err != nil {
			cli.Fatal(err)
		}
		start := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			cli.Fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		fmt.Printf("   (%s completed in %s at scale %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond), sc)
	}
}
