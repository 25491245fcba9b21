// Command perfbench is the repository's benchmark. One invocation runs
// one workload in a fresh process and prints, as its last line, a JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).
//
// Every workload replays the same seeded fleet-shaped trace
// (workloads.Synthesize) and differs only in the path requests take, so
// a gap between workloads is a layer:
//
//	fleet-inproc    Server.InProc on one default server
//	fleet-loopback  serve.Conn over loopback TCP to the same server
//	cluster-cached  cluster.Balancer over two servers, element chain on
//
// Run it from the repository root through run.sh, which builds this
// package first:
//
//	bash perfbench/run.sh --workload fleet-inproc --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// processStart anchors setup_s: package initialisation runs before main,
// so this is as close to process start as the program can observe.
var processStart = time.Now()

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: fleet-inproc, fleet-loopback or cluster-cached")
	seed := fs.Int64("seed", 1, "trace seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	setupOnly := fs.Bool("setup-only", false, "set up, print setup seconds and exit (used for setup_s repeats)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}

	e, err := setup(w, *seed)
	if err != nil {
		return err
	}
	setupS := time.Since(processStart).Seconds()
	if *setupOnly {
		e.close()
		fmt.Printf("setup_s %.9f\n", setupS)
		return nil
	}

	budget := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTraced(e, budget, *seed)
	} else {
		res, err = runUntraced(e, budget, *seed, setupS)
	}
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return errors.New("run was not correct; see the phase lines above")
	}
	return nil
}
