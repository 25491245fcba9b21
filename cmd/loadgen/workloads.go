package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"protoacc/internal/serve"
	"protoacc/internal/telemetry"
	"protoacc/internal/workloads"
)

// workloadsRun bundles everything the -workload modes need from main's
// flag set.
type workloadsRun struct {
	mode    string // "trace", "chain", or "all"
	seed    int64
	records int
	hops    int
	workers int
	timeout time.Duration
	check   bool
	catalog *serve.Catalog
	dial    func() (serve.Doer, error)
	target  string // the dialed server, for the report
	out     string
}

// runWorkloads synthesizes the fleet-shaped trace, replays it and/or
// drives the service chain against the target, prints the
// serve/workload/... counter groups (the smoke target greps these
// lines), and writes the markdown report behind
// results/serve_workloads.md.
func runWorkloads(cfg workloadsRun) error {
	switch cfg.mode {
	case "trace", "chain", "all":
	default:
		return fmt.Errorf("loadgen: unknown -workload %q (want trace, chain, or all)", cfg.mode)
	}
	catalog := cfg.catalog
	trace, err := workloads.Synthesize(workloads.SynthOptions{
		Seed:    cfg.seed,
		Records: cfg.records,
		Catalog: catalog,
	})
	if err != nil {
		return err
	}
	var deser, ser int
	for _, r := range trace.Records {
		if r.Op == serve.OpSerialize {
			ser++
		} else {
			deser++
		}
	}
	costs, err := workloads.CalibrateCosts(catalog)
	if err != nil {
		return err
	}

	fmt.Printf("loadgen: workload %s, target %s, trace seed=%d records=%d (%d deser / %d ser), workers %d\n",
		cfg.mode, cfg.target, trace.Seed, len(trace.Records), deser, ser, cfg.workers)

	reg := &telemetry.Registry{}
	var rrep *workloads.ReplayReport
	var crep *workloads.ChainReport
	if cfg.mode == "trace" || cfg.mode == "all" {
		rrep, err = workloads.Replay(workloads.ReplayOptions{
			Dial:    cfg.dial,
			Trace:   trace,
			Catalog: catalog,
			Workers: cfg.workers,
			Timeout: cfg.timeout,
			Check:   cfg.check,
			Costs:   costs,
		})
		if err != nil {
			return err
		}
		printHop(os.Stdout, "replay", &rrep.Stats, rrep.Elapsed)
		reg.Register("serve/workload/trace", &rrep.Stats)
	}
	if cfg.mode == "chain" || cfg.mode == "all" {
		crep, err = workloads.RunChain(workloads.ChainOptions{
			Dial:    cfg.dial,
			Trace:   trace,
			Catalog: catalog,
			Hops:    cfg.hops,
			Workers: cfg.workers,
			Timeout: cfg.timeout,
			Check:   cfg.check,
			Costs:   costs,
		})
		if err != nil {
			return err
		}
		for _, h := range crep.Hops {
			printHop(os.Stdout, "chain", h, crep.Elapsed)
		}
		fmt.Printf("chain    e2e             %7.0f chains/s  completed=%d\n  latency p50=%v p99=%v p999=%v mean=%v\n",
			crep.RPS(), crep.Records,
			crep.E2E.Quantile(0.50), crep.E2E.Quantile(0.99), crep.E2E.Quantile(0.999), crep.E2E.Mean())
		crep.RegisterHops(reg)
	}

	// The counter groups, named exactly as server-side telemetry names
	// things — workloads-smoke asserts on these lines.
	for _, s := range reg.Snapshot().Samples() {
		fmt.Printf("%s %.0f\n", s.Name, s.Value)
	}

	if cfg.out != "" {
		if err := writeWorkloadsMarkdown(cfg.out, cfg, len(trace.Records), deser, ser, rrep, crep); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", cfg.out)
	}

	failed := false
	scan := func(h *workloads.HopStats) {
		if h.Errors > 0 || h.CheckFail > 0 || h.OK == 0 {
			failed = true
		}
	}
	if rrep != nil {
		scan(&rrep.Stats)
	}
	if crep != nil {
		for _, h := range crep.Hops {
			scan(h)
		}
		if crep.Records == 0 {
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("loadgen: workload FAILED (errors, check failures, or zero completions)")
	}
	return nil
}

// printHop prints one hop's (or the whole replay's) summary line pair.
func printHop(w io.Writer, kind string, h *workloads.HopStats, elapsed time.Duration) {
	rps := 0.0
	if elapsed > 0 {
		rps = float64(h.OK) / elapsed.Seconds()
	}
	fmt.Fprintf(w, "%-8s %-15s %7.0f req/s  ok=%d rejected=%d fellback=%d errors=%d",
		kind, h.Name, rps, h.OK, h.Rejected, h.FellBack, h.Errors)
	if h.CheckFail > 0 {
		fmt.Fprintf(w, " CHECK-FAILURES=%d", h.CheckFail)
	}
	if s := h.Savings(); s > 0 {
		fmt.Fprintf(w, "  savings=%.2fx", s)
	}
	fmt.Fprintf(w, "\n  latency p50=%v p99=%v p999=%v mean=%v\n",
		h.Latency.Quantile(0.50), h.Latency.Quantile(0.99), h.Latency.Quantile(0.999), h.Latency.Mean())
}

// writeWorkloadsMarkdown writes the fleet-shaped workloads report
// (overwriting path): the trace-replay summary and the per-hop +
// end-to-end service-chain tables, each with the calibrated
// accelerator-vs-software cycle savings.
func writeWorkloadsMarkdown(path string, cfg workloadsRun, records, deser, ser int, rrep *workloads.ReplayReport, crep *workloads.ChainReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintf(f, "# Fleet-shaped workloads (loadgen -workload)\n\n")
	fmt.Fprintf(f, "Target: %s, workers %d, GOMAXPROCS=%d, %s.\n",
		cfg.target, cfg.workers, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(f, "Trace: seed %d, %d records (%d deser / %d ser), schema mix weighted by\n",
		cfg.seed, records, deser, ser)
	fmt.Fprintf(f, "the fleet field-type distribution, payload sizes drawn from the fleet\n")
	fmt.Fprintf(f, "message-size distribution, Zipf-ranked key popularity. Savings compare\n")
	fmt.Fprintf(f, "calibrated Xeon software-codec cycles (normalized to the accelerator\n")
	fmt.Fprintf(f, "clock, so the ratio reads as wall-time) against the accelerator cycles\n")
	fmt.Fprintf(f, "the server attributed to the same requests; fallback-served responses are\n")
	fmt.Fprintf(f, "excluded from both sides.\n")
	hopRow := func(h *workloads.HopStats, rps float64) {
		fmt.Fprintf(f, "| %s | %.0f | %d | %d | %d | %v | %v | %.0f | %.0f | %.2fx |\n",
			h.Name, rps, h.OK, h.Rejected, h.FellBack,
			h.Latency.Quantile(0.50), h.Latency.Quantile(0.99),
			h.AccelCycles, h.SoftCycles, h.Savings())
	}
	header := func() {
		fmt.Fprintf(f, "| hop | req/s | ok | rejected | fellback | p50 | p99 | accel cycles | software cycles | savings |\n")
		fmt.Fprintf(f, "|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|\n")
	}
	if rrep != nil {
		fmt.Fprintf(f, "\n## Trace replay\n\n")
		fmt.Fprintf(f, "The whole trace in record order across %d workers, every OK response\n", cfg.workers)
		fmt.Fprintf(f, "byte-verified against the canonical sample payload.\n\n")
		header()
		hopRow(&rrep.Stats, rrep.RPS())
	}
	if crep != nil {
		fmt.Fprintf(f, "\n## Service chain (%d hops)\n\n", len(crep.Hops))
		fmt.Fprintf(f, "Each record crosses every hop; a hop is one service-to-service edge\n")
		fmt.Fprintf(f, "whose sender serializes and receiver deserializes on the accelerated\n")
		fmt.Fprintf(f, "serving path, so per-hop latency covers the ser+deser pair.\n\n")
		header()
		for _, h := range crep.Hops {
			rps := 0.0
			if crep.Elapsed > 0 {
				rps = float64(h.OK) / crep.Elapsed.Seconds()
			}
			hopRow(h, rps)
		}
		fmt.Fprintf(f, "\nEnd-to-end: %d records completed every hop OK at %.0f chains/s;\n",
			crep.Records, crep.RPS())
		fmt.Fprintf(f, "latency p50=%v p99=%v p999=%v mean=%v.\n",
			crep.E2E.Quantile(0.50), crep.E2E.Quantile(0.99), crep.E2E.Quantile(0.999), crep.E2E.Mean())
	}
	return nil
}
