// Resilient dispatch: the transactional layer between the System's public
// operations and the accelerator.
//
// Every accelerator-backed operation runs as a transaction. When an
// injected fault (internal/faults) surfaces anywhere in the command path —
// RoCC queue, deserializer, serializer, message-operations unit — the
// dispatch layer aborts the attempt cleanly: the unit's partial writes are
// rolled back (arena and heap high-water-mark truncation with
// zero-scrubbing, serializer output rewind), its partial cycles are
// charged as abort penalty, and the RoCC router drains its in-flight
// state. Transient faults (access faults, spill failures, queue timeouts)
// are retried up to maxAttempts with bounded, cycle-charged exponential
// backoff; permanent faults (arena exhaustion, corrupted wire bytes) and
// exhausted retries fall back to the software codec on the host core. The
// caller observes a successful Result either way — augmented with a
// FaultReport and the penalty cycles — or the original error when the
// failure is a genuine model error rather than an injected fault. A
// software System has no accelerator: it runs the fallback directly, and
// nothing is counted.
package core

import (
	"errors"
	"fmt"

	"protoacc/internal/accel/mops"
	"protoacc/internal/faults"
	"protoacc/internal/pb/schema"
	"protoacc/internal/telemetry"
)

const (
	// maxAttempts bounds accelerator attempts per operation (first try
	// plus retries of transient faults).
	maxAttempts = 3
	// retryBackoffBase is the accelerator-clock cycle charge of the first
	// retry's backoff; each further retry doubles it.
	retryBackoffBase = 50.0
)

// FaultReport records the fault-recovery history of one operation. It is
// attached to the Result only when at least one injected fault occurred.
type FaultReport struct {
	Attempts int   // accelerator attempts made (including the first)
	Retries  int   // re-attempts after transient faults
	FellBack bool  // the operation completed on the software path
	Err      error // the last injected fault (even if a retry then succeeded)
}

// resilienceStats counts the dispatch layer's recovery actions; registered
// as the "resilience" telemetry group on every System so the -stats-out
// shape is uniform across system kinds.
type resilienceStats struct {
	aborts        uint64
	retries       uint64
	fallbacks     uint64
	transients    uint64
	permanents    uint64
	backoffCycles float64
}

// CollectTelemetry implements telemetry.Collector.
func (r *resilienceStats) CollectTelemetry(emit func(name string, value float64)) {
	emit("aborts", float64(r.aborts))
	emit("retries", float64(r.retries))
	emit("fallbacks", float64(r.fallbacks))
	emit("transients", float64(r.transients))
	emit("permanents", float64(r.permanents))
	emit("backoff_cycles", r.backoffCycles)
}

// accelAttempt describes one accelerator-backed operation to the resilient
// runner.
type accelAttempt struct {
	// attempt runs the operation once on the accelerator against the
	// type's ADT, capturing its rollback marks before issuing any command.
	attempt func(adtAddr uint64) (Result, error)
	// abort undoes the failed attempt's memory effects (allocator
	// truncation, output rewind) and returns the cycles the aborted
	// attempt consumed on its unit. The runner adds the RoCC router's own
	// drain cost separately.
	abort func() (float64, error)
	// fallback runs the operation on the host core's software codec: a
	// software System's only path, and a faulted accelerator's way out.
	fallback func() (Result, error)
}

// accelSeconds converts accelerator-clock cycles to seconds.
func (s *System) accelSeconds(cy float64) float64 {
	return cy / (s.Cfg.AccelFreqGHz * 1e9)
}

// traceResilience emits one dispatch-layer recovery event ("abort",
// "retry", "fallback") on the RoCC router's timeline.
func (s *System) traceResilience(name, op string) {
	if s.tel.Tracer.Enabled() {
		s.tel.Tracer.Emit(telemetry.Event{
			Unit: "core", Name: name, Cycle: s.Accel.Timeline(), Note: op,
		})
	}
}

// resilient runs an operation on type t: on a software System, its
// fallback; otherwise on the accelerator, transactionally, which needs
// t's ADT loaded. Fault-free accelerator operations pass through with no
// extra accounting. On an injected fault the attempt is aborted and
// rolled back; transients are retried with cycle-charged backoff,
// permanents (and exhausted retries) fall back to software. The penalty
// cycles of failed attempts and backoff are charged to the returned
// Result in the accelerator's clock domain — on fallback, Result.Cycles
// therefore mixes clock domains and Result.Seconds is the authoritative
// wall-clock total. Genuine (non-injected) errors propagate unchanged; an
// error wrapping mops.ErrPoisoned additionally poisons the System so the
// Pool refuses to recycle it.
func (s *System) resilient(op string, t *schema.Message, a accelAttempt) (Result, error) {
	if s.Accel == nil {
		return a.fallback()
	}
	if s.adts == nil || s.adts.Addr(t) == 0 {
		return Result{}, fmt.Errorf("core: type %s not loaded", t.Name)
	}
	adtAddr := s.adts.Addr(t)
	var rep *FaultReport // allocated by the first fault only
	var penalty float64  // accel-clock cycles consumed by failed attempts
	for n := 1; ; n++ {
		res, err := a.attempt(adtAddr)
		if err == nil {
			if rep != nil {
				rep.Attempts = n
				res.Cycles += penalty
				res.Seconds += s.accelSeconds(penalty)
				res.Fault = rep
			}
			return res, nil
		}
		if errors.Is(err, mops.ErrPoisoned) {
			s.poisoned = true
			return Result{}, err
		}
		f := faults.AsFault(err)
		if f == nil {
			return Result{}, err
		}
		if rep == nil {
			rep = new(FaultReport)
		}
		rep.Attempts = n
		rep.Err = f
		s.res.aborts++
		unitCycles, abortErr := a.abort()
		if abortErr != nil {
			return Result{}, abortErr
		}
		penalty += unitCycles + s.Accel.AbortInFlight()
		s.traceResilience("abort", op)
		if faults.Classify(f.Site) == faults.ClassTransient {
			s.res.transients++
			if n < maxAttempts {
				backoff := retryBackoffBase * float64(uint64(1)<<uint(n-1))
				penalty += backoff
				s.res.backoffCycles += backoff
				s.res.retries++
				rep.Retries++
				s.traceResilience("retry", op)
				continue
			}
		} else {
			s.res.permanents++
		}
		s.res.fallbacks++
		rep.FellBack = true
		s.traceResilience("fallback", op)
		res, ferr := a.fallback()
		if ferr != nil {
			return Result{}, ferr
		}
		res.Cycles += penalty
		res.Seconds += s.accelSeconds(penalty)
		res.Fault = rep
		return res, nil
	}
}

// Poisoned reports whether an operation left this System's simulated state
// undefined (a merge aborted mid-mutation). A poisoned System must not be
// reused without ResetAll; the Pool refuses to recycle it.
func (s *System) Poisoned() bool { return s.poisoned }
