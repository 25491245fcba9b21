package main

import (
	"fmt"
	"io"
	"os"
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
	target  string // the dialed server, for the banner line
}

// runWorkloads synthesizes the fleet-shaped trace, replays it and/or
// drives the service chain against the target, and prints the
// serve/workload/... counter groups (the smoke target greps these
// lines).
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
