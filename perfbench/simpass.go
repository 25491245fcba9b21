package main

import (
	"fmt"

	"protoacc/internal/core"
	"protoacc/internal/serve"
)

// simResult is the deterministic simulated pass: simulated time only,
// never blended with host time.
type simResult struct {
	tally
	gbps, speedup float64
}

// simPass replays the trace on a fresh server with the element chain
// off, because a cache hit replays cycles stored from another batch.
// Each sub-trace runs as preformed MaxBatch batches grouped by
// (schema, op), so batch composition, and with it every cycle count, is
// a pure function of the trace.
//
// Per sub-trace, Gbit/s is OK payload bits over simulated accelerator
// seconds, and the Xeon speedup is calibrated software time over
// accelerator time for the same requests. The pass reports the median
// over sub-traces: a sub-trace whose hottest key drew a kilobyte string
// carries ten times the bytes of a typical one, so a pooled ratio would
// follow that one draw. A non-OK response or a byte mismatch counts as
// failed; an answer off the accelerator is an error.
func simPass(e *env) (simResult, error) {
	srv, err := serve.NewServer(serve.Options{Catalog: e.cat})
	if err != nil {
		return simResult{}, err
	}
	defer srv.Close()
	hz := core.DefaultConfig(core.KindAccel).AccelFreqGHz * 1e9
	c := srv.InProc()
	var s simResult
	var gbps, speedup []float64
	for k := 0; k < subTraces; k++ {
		var idx []int
		for i := k; i < len(e.reqs); i += subTraces {
			idx = append(idx, i)
		}
		t, order, resps := e.prefill(c, idx)
		s.tally.merge(t)
		var bits, cycles, xeon float64
		for j, i := range order {
			resp, r := resps[j], e.records[i]
			if resp.Status != serve.StatusOK {
				continue // counted as failed by the tally
			}
			if resp.FellBack || resp.Cycles <= 0 {
				return s, fmt.Errorf("simulated pass: request %d answered off the accelerator", i)
			}
			bits += float64(8 * len(resp.Payload))
			cycles += resp.Cycles
			xeon += e.costs.Cycles(r.Schema, r.Sample, r.Op)
		}
		if cycles <= 0 {
			return s, fmt.Errorf("simulated pass: sub-trace %d ran no accelerator cycles (%s)", k, t)
		}
		gbps = append(gbps, bits/(cycles/hz)/1e9)
		speedup = append(speedup, xeon/cycles)
	}
	s.gbps, s.speedup = median(gbps), median(speedup)
	return s, nil
}
