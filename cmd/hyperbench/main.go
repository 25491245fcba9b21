// Command hyperbench regenerates the paper's HyperProtoBench evaluation
// (Figures 12 and 13, §5.2): six fleet-shaped synthetic service suites
// (bench0…bench5) run on the three systems. It can also dump the
// generated .proto schemas and per-suite shape statistics collected by the
// protobufz-style sampler.
//
// Usage:
//
//	hyperbench [-op deser|ser|both] [-dump-proto dir] [-stats]
//	           [-parallel n] [-cpuprofile file] [-memprofile file]
//	           [-stats-out file] [-trace-op suite] [-trace-out file]
//	           [-faults rate[@site,...]] [-fault-seed n]
//
// -stats-out writes every run's telemetry counters (all units, all
// memory-hierarchy levels) as JSON (or Prometheus text with a .prom
// suffix). -trace-op enables cycle-level tracing of the named suite
// (bench0…bench5) on riscv-boom-accel; -trace-out (default trace.json)
// receives the Perfetto-loadable trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"protoacc/internal/bench"
	"protoacc/internal/core"
	"protoacc/internal/faults"
	"protoacc/internal/fleet"
	"protoacc/internal/hyperbench"
	"protoacc/internal/pb/schema"
	"protoacc/internal/telemetry"
)

func main() {
	op := flag.String("op", "both", "operation: deser, ser, or both")
	dump := flag.String("dump-proto", "", "directory to write the generated .proto files")
	stats := flag.Bool("stats", false, "print per-suite shape statistics")
	parallel := flag.Int("parallel", 0, "simulation worker count (0 = GOMAXPROCS, 1 = serial)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	statsOut := flag.String("stats-out", "", "write aggregated telemetry counters to this file (JSON, or Prometheus text with a .prom suffix)")
	traceOp := flag.String("trace-op", "", "capture a cycle trace of this suite on riscv-boom-accel")
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

	if *dump != "" {
		if err := dumpProtos(*dump); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *stats {
		if err := printStats(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	var figs []bench.Figure
	switch *op {
	case "deser":
		figs = []bench.Figure{bench.Fig12}
	case "ser":
		figs = []bench.Figure{bench.Fig13}
	case "both":
		figs = []bench.Figure{bench.Fig12, bench.Fig13}
	default:
		fmt.Fprintf(os.Stderr, "unknown op %q\n", *op)
		os.Exit(2)
	}
	opts := bench.HyperOptions()
	opts.Parallelism = *parallel
	opts.Faults = faultCfg
	if *statsOut != "" {
		opts.Telemetry = &bench.TelemetrySink{}
	}
	if *traceOp != "" {
		opts.Trace = &bench.TraceCapture{Workload: *traceOp, System: core.KindAccel}
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
	if len(figs) == 2 {
		fmt.Printf("HyperProtoBench overall (§5.2): %.1fx vs riscv-boom (paper: 6.2x), %.1fx vs Xeon (paper: 3.8x)\n",
			bench.Geomean(vbs), bench.Geomean(vxs))
	}

	if opts.Telemetry != nil {
		m := bench.NewManifest("hyperbench "+strings.Join(os.Args[1:], " "), opts)
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

func dumpProtos(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	benches, err := hyperbench.GenerateAll()
	if err != nil {
		return err
	}
	for _, b := range benches {
		path := filepath.Join(dir, b.Profile.Name+".proto")
		if err := os.WriteFile(path, []byte(b.Source), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d message types)\n", path, countTypes(b))
	}
	return nil
}

func countTypes(b *hyperbench.Benchmark) int {
	n := 0
	b.Root.Walk(func(*schema.Message) { n++ })
	return n
}

func printStats() error {
	benches, err := hyperbench.GenerateAll()
	if err != nil {
		return err
	}
	for _, b := range benches {
		s := fleet.NewSampler()
		for _, m := range b.Messages {
			s.SampleTopLevel(m)
		}
		fmt.Printf("%s: %d msgs, %d wire bytes (avg %.0f B/msg), depth(p99.9)=%d\n",
			b.Profile.Name, len(b.Messages), b.TotalWireBytes,
			float64(b.TotalWireBytes)/float64(len(b.Messages)), s.DepthCoverage(0.999))
		var bytesLike float64
		for k, v := range s.FieldByteShares() {
			if k.Kind.Class() == 0 {
				bytesLike += v
			}
		}
		fmt.Printf("  bytes-like byte share: %.0f%%, size buckets: %v\n",
			bytesLike*100, percents(s.MessageSizeShares()))
	}
	fmt.Println()
	return nil
}

func percents(shares []float64) []string {
	out := make([]string, len(shares))
	for i, s := range shares {
		out[i] = fmt.Sprintf("%.0f%%", s*100)
	}
	return out
}
