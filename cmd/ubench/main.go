// Command ubench regenerates the paper's microbenchmark evaluation
// (Figures 11a-11d and the §5.1 summary speedups) and the design-choice
// ablations, running every benchmark on the three systems: riscv-boom,
// Xeon, and riscv-boom-accel.
//
// Usage:
//
//	ubench [-fig 11a|11b|11c|11d|all] [-ablation name|all|none] [-ops]
//	       [-parallel n] [-cpuprofile file] [-memprofile file]
//	       [-stats-out file] [-trace-op workload] [-trace-out file]
//	       [-faults rate[@site,...]] [-fault-seed n]
//
// -stats-out writes the telemetry counters of every run (all units, all
// memory-hierarchy levels) as JSON (or Prometheus text with a .prom
// suffix), with an embedded provenance manifest. -trace-op enables
// cycle-level tracing of the named workload on riscv-boom-accel and
// -trace-out (default trace.json) receives the Perfetto-loadable trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"protoacc/internal/bench"
	"protoacc/internal/core"
	"protoacc/internal/faults"
	"protoacc/internal/telemetry"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 11a, 11b, 11c, 11d, or all")
	ablation := flag.String("ablation", "none", "ablation to run: adt-vs-per-instance, sparse-vs-dense-hasbits, field-unit-count, stack-depth, memloader-width, all, or none")
	ops := flag.Bool("ops", false, "benchmark the §7 extension operators (clear/copy/merge)")
	parallel := flag.Int("parallel", 0, "simulation worker count (0 = GOMAXPROCS, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	statsOut := flag.String("stats-out", "", "write aggregated telemetry counters to this file (JSON, or Prometheus text with a .prom suffix)")
	traceOp := flag.String("trace-op", "", "capture a cycle trace of this workload on riscv-boom-accel")
	traceOut := flag.String("trace-out", "trace.json", "write the captured Perfetto trace to this file")
	var faultCfg faults.Config
	faultCfg.RegisterFlags(flag.CommandLine)
	flag.Parse()

	stopProfiles, err := telemetry.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	opts := bench.DefaultOptions()
	opts.Parallelism = *parallel
	opts.Faults = faultCfg
	if *statsOut != "" {
		opts.Telemetry = &bench.TelemetrySink{}
	}
	if *traceOp != "" {
		opts.Trace = &bench.TraceCapture{Workload: *traceOp, System: core.KindAccel}
	}

	figs := []bench.Figure{bench.Fig11a, bench.Fig11b, bench.Fig11c, bench.Fig11d}
	if *fig != "all" && *fig != "none" {
		figs = []bench.Figure{bench.Figure(*fig)}
	}
	if *fig == "none" {
		figs = nil
	}
	var vbs, vxs []float64
	for _, f := range figs {
		rows, err := bench.RunFigure(f, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatTable(bench.FigureTitle(f), rows))
		vb, vx := bench.Speedups(rows)
		fmt.Printf("summary: %.1fx vs riscv-boom, %.1fx vs Xeon\n\n", vb, vx)
		vbs = append(vbs, vb)
		vxs = append(vxs, vx)
	}
	if len(figs) == 4 {
		fmt.Printf("overall microbenchmark speedup (geomean of the four classes, §5.1.3):\n")
		fmt.Printf("  %.1fx vs riscv-boom (paper: 11.2x), %.1fx vs Xeon (paper: 3.8x)\n\n",
			bench.Geomean(vbs), bench.Geomean(vxs))
	}

	if *ops {
		out, err := bench.RunOperators(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	if *ablation != "none" {
		abls := bench.Ablations()
		if *ablation != "all" {
			abls = []bench.Ablation{bench.Ablation(*ablation)}
		}
		for _, a := range abls {
			out, err := bench.RunAblation(a, opts)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(out)
		}
	}

	if opts.Telemetry != nil {
		m := bench.NewManifest("ubench "+strings.Join(os.Args[1:], " "), opts)
		if err := bench.WriteStatsFile(*statsOut, m, opts.Telemetry); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("telemetry counters written to %s\n", *statsOut)
	}
	if opts.Trace != nil {
		if err := bench.WriteTraceFile(*traceOut, opts.Trace); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace of %q written to %s (load in ui.perfetto.dev or chrome://tracing)\n", *traceOp, *traceOut)
	}
}
