package telemetry

// Event is one cycle-timestamped trace record — the common structured
// event the deserializer, serializer, message-operations unit, and RoCC
// command router all emit. Cycle is the emitting unit's cumulative cycle
// counter at emission time (each unit is its own "waveform lane"); Dur is
// nonzero for span events covering a whole operation.
type Event struct {
	Unit  string  // "deser", "ser", "mops", "rocc"
	Name  string  // state or instruction name ("parseKey", "do_proto_deser", ...)
	Cycle float64 // cycle timestamp on the unit's own timeline
	Dur   float64 // span duration in cycles; 0 = instant event
	Depth int     // message nesting depth, where meaningful
	Field int32   // field number, where meaningful
	Pos   uint64  // stream position / address argument
	Note  string  // free-form detail (wire type, kind, element count)
}

// Tracer buffers Events for one System. The zero value is a valid,
// disabled tracer. All methods are nil-receiver safe so units can hold a
// possibly-nil *Tracer and emit unconditionally.
//
// Overhead contract: when disabled, Emit is a branch and nothing else —
// no allocation, no event construction cost beyond the caller's argument
// evaluation. Emit sites whose arguments themselves allocate (formatted
// notes) must check Enabled() first.
type Tracer struct {
	enabled bool
	events  []Event
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled }

// Enable starts recording.
func (t *Tracer) Enable() { t.enabled = true }

// Disable stops recording without discarding buffered events.
func (t *Tracer) Disable() {
	if t != nil {
		t.enabled = false
	}
}

// Emit appends one event when enabled.
func (t *Tracer) Emit(ev Event) {
	if !t.Enabled() {
		return
	}
	t.events = append(t.events, ev)
}

// Events returns the buffered events (callers must not modify; copy via
// TakeEvents to keep them past a Reset).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// TakeEvents returns a copy of the buffered events and empties the
// buffer, keeping its storage for reuse.
func (t *Tracer) TakeEvents() []Event {
	if t == nil || len(t.events) == 0 {
		return nil
	}
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.events = t.events[:0]
	return out
}

// Reset disables the tracer and empties the buffer, keeping storage.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.enabled = false
	t.events = t.events[:0]
}
