package main

import (
	"fmt"
	"os"

	"protoacc/internal/serve"
	"protoacc/internal/telemetry"
	"protoacc/internal/workloads"
)

// runWorkloads synthesizes the fleet-shaped trace, replays it under the
// base options, and prints the serve/workload/trace/ counter group.
// target names the dialed server for the banner.
func runWorkloads(base workloads.LoadOptions, seed int64, records int, target string) error {
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

	fmt.Printf("loadgen: workload trace, target %s, trace seed=%d records=%d (%d deser / %d ser), workers %d\n",
		target, trace.Seed, len(trace.Records), deser, ser, base.Workers)

	rep, err := workloads.Run(base)
	if err != nil {
		return err
	}
	st := &rep.Tally
	printTally(os.Stdout, fmt.Sprintf("%-8s %-15s", "replay", "trace"), st, rep.Elapsed)

	// The counter group, one "name value" line each, named as
	// server-side telemetry names things.
	reg := &telemetry.Registry{}
	reg.Register("serve/workload/trace", st)
	for _, s := range reg.Snapshot().Samples() {
		fmt.Printf("%s %.0f\n", s.Name, s.Value)
	}

	if st.Errors > 0 || st.CheckFailures > 0 || st.OK == 0 {
		return fmt.Errorf("loadgen: workload FAILED (errors, check failures, or zero completions)")
	}
	return nil
}
