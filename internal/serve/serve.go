// Package serve is the network-facing serving layer over the simulated
// accelerator: the piece that turns the offline benchmark harness into
// the fleet-scale RPC shape the paper motivates (§1: protobuf ser/deser
// burns >5% of fleet cycles precisely because it sits on the RPC path).
//
// A Server hosts a catalog of named schemas and accepts
// serialize/deserialize requests — length-prefixed frames over TCP, or
// direct calls through the in-process client. Concurrent requests for
// the same (schema, operation) are folded into accelerator batches (the
// §4.4.1 completion-barrier pattern) and executed on core.Systems
// recycled through a core.Pool. Production controls are built in:
//
//   - Admission control: a bounded queue; requests beyond its capacity
//     are shed immediately with StatusShed rather than queued without
//     bound.
//   - Deadlines: every request carries a budget (or inherits the server
//     default); requests that expire while queued are answered with
//     StatusDeadline instead of wasting accelerator batches.
//   - Graceful degradation: when a batch fails on the accelerator — the
//     fault framework poisoned the System, or a genuine model error
//     surfaced — the affected requests complete on the host's software
//     codec and are answered with FellBack set. Injected faults that the
//     core's transactional dispatch rode out (retry or in-simulation
//     software fallback) never reach this layer; they only show up in
//     the resilience counters and the per-response fault flag.
//
// Functional responses are canonical codec.Marshal bytes. For a payload
// with no unknown fields they are byte-identical to the pure-software
// codec's on every path — fault-free, retried, fallen back — which the
// chaos tests assert request by request. A payload with unknown fields
// gets an answer that depends on its path (ROADMAP.md item 1): an answer
// read back from a simulated object drops them, because the models skip
// unknown fields and the materializer writes none, while a degraded
// batch's software answer keeps them.
package serve

import "time"

// Op selects the operation a request asks for.
type Op uint8

// Operations.
const (
	OpDeserialize Op = iota
	OpSerialize
)

func (o Op) String() string {
	if o == OpSerialize {
		return "ser"
	}
	return "deser"
}

// Status classifies a response.
type Status uint8

// Response statuses.
const (
	// StatusOK: the operation completed; Payload carries the result.
	StatusOK Status = iota
	// StatusShed: the admission queue was full (or the server is
	// shutting down) and the request was load-shed without being run.
	StatusShed
	// StatusDeadline: the request's deadline expired before a batch
	// picked it up.
	StatusDeadline
	// StatusBadRequest: unknown schema, oversized or malformed payload.
	StatusBadRequest
	// StatusError: an internal error; Payload carries the message.
	StatusError
	// StatusThrottled: the client exceeded its admission-control token
	// budget (elements chain); distinct from StatusShed so clients can
	// tell "server full" from "you specifically are over rate".
	StatusThrottled

	numStatuses // sentinel: the number of statuses above
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusShed:
		return "shed"
	case StatusDeadline:
		return "deadline"
	case StatusBadRequest:
		return "bad_request"
	case StatusError:
		return "error"
	case StatusThrottled:
		return "throttled"
	default:
		return "status(?)"
	}
}

// Request is one serialize or deserialize call.
//
// The payload is wire-format bytes for both operations: a deserialize
// request carries the buffer to parse and is answered with the canonical
// re-serialization of the object the accelerator materialized (proving
// the parse, in a byte-comparable form); a serialize request carries the
// wire-format description of the object to build and is answered with
// the bytes the accelerator's serializer produced.
type Request struct {
	ID      uint64        // client-chosen correlation id, echoed in the response
	Op      Op            // operation
	Schema  string        // catalog entry name
	Timeout time.Duration // per-request deadline budget; 0 inherits the server default
	Payload []byte        // wire-format input
}

// Response answers one Request.
type Response struct {
	ID       uint64  // Request.ID echoed back
	Status   Status  // outcome
	FellBack bool    // completed by a software codec path (core fallback or server degradation)
	Cycles   float64 // simulated accelerator cycles attributed to this request (0 when served in software by the server)
	Payload  []byte  // StatusOK: result bytes; otherwise a diagnostic message
}
