package main

import (
	"fmt"
	"os"

	"protoacc/internal/serve"
	"protoacc/internal/telemetry"
	"protoacc/internal/workloads"
)

// runWorkloads synthesizes the fleet-shaped trace, replays it and/or
// drives the hops-long service chain with it under the base options,
// and prints the serve/workload/... counter groups. target names the
// dialed server for the banner.
func runWorkloads(base workloads.LoadOptions, mode string, seed int64, records, hops int, target string) error {
	switch mode {
	case "trace", "chain", "all":
	default:
		return fmt.Errorf("loadgen: unknown -workload %q (want trace, chain, or all)", mode)
	}
	trace, err := workloads.Synthesize(workloads.SynthOptions{
		Seed:    seed,
		Records: records,
		Catalog: base.Catalog,
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
	if base.Costs, err = workloads.CalibrateCosts(base.Catalog); err != nil {
		return err
	}
	base.Source = trace.Source(base.Catalog)

	fmt.Printf("loadgen: workload %s, target %s, trace seed=%d records=%d (%d deser / %d ser), workers %d\n",
		mode, target, trace.Seed, len(trace.Records), deser, ser, base.Workers)

	reg := &telemetry.Registry{}
	var streams []*workloads.Tally
	failed := false
	if mode == "trace" || mode == "all" {
		rep, err := workloads.Run(base)
		if err != nil {
			return err
		}
		st := rep.Streams[0]
		printTally(os.Stdout, fmt.Sprintf("%-8s %-15s", "replay", "trace"), st, rep.Elapsed)
		reg.Register("serve/workload/trace", st)
		streams = append(streams, st)
	}
	if mode == "chain" || mode == "all" {
		base.Hops = hops
		rep, err := workloads.Run(base)
		if err != nil {
			return err
		}
		for i, st := range rep.Streams {
			printTally(os.Stdout, fmt.Sprintf("%-8s %-15s", "chain", st.Name), st, rep.Elapsed)
			reg.Register(fmt.Sprintf("serve/workload/hop%d", i), st)
		}
		streams = append(streams, rep.Streams...)
		var cps float64
		if rep.Elapsed > 0 {
			cps = float64(rep.Records) / rep.Elapsed.Seconds()
		}
		fmt.Printf("chain    e2e             %7.0f chains/s  completed=%d\n  latency p50=%v p99=%v p999=%v mean=%v\n",
			cps, rep.Records,
			rep.E2E.Quantile(0.50), rep.E2E.Quantile(0.99), rep.E2E.Quantile(0.999), rep.E2E.Mean())
		failed = rep.Records == 0
	}

	// The counter groups, one "name value" line each, named as
	// server-side telemetry names things.
	for _, s := range reg.Snapshot().Samples() {
		fmt.Printf("%s %.0f\n", s.Name, s.Value)
	}

	for _, st := range streams {
		if st.Errors > 0 || st.CheckFailures > 0 || st.OK == 0 {
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("loadgen: workload FAILED (errors, check failures, or zero completions)")
	}
	return nil
}
