package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many extra fresh processes re-measure set-up. Each
// runs in its own process because a second server in one process starts
// on recycled heap spans that the runtime must zero first (in a
// prototype, 163–255 ms instead of 13–44 ms for the first). setup_s is
// the median over this run's own set-up and the repeats.
const setupRepeats = 4

// segments is how many alternating capacity and latency sub-phases a run
// has, so both metrics sample the whole run rather than one half of it.
const segments = 5

// runUntraced measures the end-to-end metrics: a closed-loop capacity
// phase, an open-loop latency phase, the simulated pass, and set-up
// repeats.
func runUntraced(e *env, budget time.Duration, seed int64, setupS float64) (*result, error) {
	var capacity, paced phase
	for i := 0; i < segments; i++ {
		capacity.merge(closedLoop(e, e.clients, nil, 0, budget/2/segments))
		paced.merge(openLoop(e, e.clients, nil, pacedRate, budget/2/segments))
	}
	e.close()
	// The timed phases are over: collect garbage eagerly so the simulated
	// pass and the set-up repeats run beside a small heap.
	debug.SetGCPercent(20)
	t0 := time.Now()
	sim, err := simPass(e)
	if err != nil {
		return nil, err
	}
	simDur := time.Since(t0)
	setups := []float64{setupS}
	for i := 0; i < setupRepeats; i++ {
		s, err := setupInChild(e.w.name, seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	p50, beyond50 := quantile(paced.lat, 0.50)
	p99, beyond99 := quantile(paced.lat, 0.99)
	printPhase("warm-up", e.warm)
	printPhase("capacity", capacity.tally)
	printPhase("paced", paced.tally)
	printPhase("simulated", sim.tally)
	fmt.Printf("capacity: in_flight=%d windows=%d rps_median=%.1f rps_whole=%.1f\n",
		inFlight, len(capacity.windows), capacity.rps(), float64(capacity.ok)/capacity.elapsed.Seconds())
	fmt.Printf("paced: rate=%d/s n=%d p50_ms=%.4f beyond=%d p99_ms=%.4f beyond=%d gen_late_ms=%.4f\n",
		pacedRate, len(paced.lat), ms(p50), beyond50, ms(p99), beyond99, ms(paced.lateness))
	fmt.Printf("setup_s samples: %v\n", setups)
	fmt.Printf("simulated: records=%d host_s=%.3f\n", len(e.reqs), simDur.Seconds())

	var all tally
	for _, t := range []tally{e.warm, capacity.tally, paced.tally, sim.tally} {
		all.merge(t)
	}
	m := map[string]float64{
		"rps":              capacity.rps(),
		"p50_ms":           ms(p50),
		"setup_s":          median(setups),
		"sim_gbps":         sim.gbps,
		"sim_speedup_xeon": sim.speedup,
	}
	return newResult(all, m, endToEnd), nil
}

// setupInChild runs set-up alone in a fresh process of this binary and
// returns its setup_s.
func setupInChild(workload string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up repeat: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	v, ok := strings.CutPrefix(last, "setup_s ")
	if !ok {
		return 0, fmt.Errorf("set-up repeat printed %q", last)
	}
	return strconv.ParseFloat(v, 64)
}

func printPhase(name string, t tally) { fmt.Printf("phase %s: %s\n", name, t) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
