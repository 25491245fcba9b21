package fleet

import (
	"protoacc/internal/pb/codec"
	"protoacc/internal/pb/dynamic"
	"protoacc/internal/pb/schema"
	"protoacc/internal/pb/wire"
)

// TypeKey identifies a field-type slice (kind + repeatedness), the
// granularity of Figures 4a and 4b.
type TypeKey struct {
	Kind     schema.Kind
	Repeated bool
}

// Sampler is the protobufz analogue (§3.1.2): it samples top-level
// messages and records the structure statistics the fleet study reports —
// message sizes, field counts and bytes by type, bytes-field sizes, varint
// sizes, field-number usage density, and depth. It is used both to verify
// that generated benchmarks match the fleet distributions and to let
// downstream users profile their own workloads.
type Sampler struct {
	Messages uint64

	MessageSizeCounts []uint64 // per SizeBucketBounds bucket
	MessageSizeBytes  []uint64

	FieldCounts map[TypeKey]uint64
	FieldBytes  map[TypeKey]uint64 // encoded bytes (tag + value)

	BytesFieldCounts []uint64 // per BytesFieldBucketBounds bucket
	BytesFieldBytes  []uint64

	VarintSizeBytes [10]uint64 // encoded bytes by varint value size

	// DensityCounts buckets per-message-instance field-number usage
	// density, weighted by observed messages (Figure 7 buckets).
	DensityCounts []uint64

	// BytesAtDepth records encoded bytes by nesting depth (§3.8), index
	// 0 = top level.
	BytesAtDepth []uint64
}

// NewSampler creates an empty sampler.
func NewSampler() *Sampler {
	return &Sampler{
		MessageSizeCounts: make([]uint64, len(SizeBucketBounds)),
		MessageSizeBytes:  make([]uint64, len(SizeBucketBounds)),
		FieldCounts:       make(map[TypeKey]uint64),
		FieldBytes:        make(map[TypeKey]uint64),
		BytesFieldCounts:  make([]uint64, len(BytesFieldBucketBounds)),
		BytesFieldBytes:   make([]uint64, len(BytesFieldBucketBounds)),
		DensityCounts:     make([]uint64, len(FieldDensity())),
	}
}

// bucketIndex returns the SizeBucketBounds bucket for size n.
func bucketIndex(n uint64) int {
	for i, b := range SizeBucketBounds {
		if n >= b[0] && (b[1] == Unbounded || n <= b[1]) {
			return i
		}
	}
	return len(SizeBucketBounds) - 1
}

// bytesFieldBucketIndex returns the BytesFieldBucketBounds bucket for a
// bytes-like field of size n.
func bytesFieldBucketIndex(n uint64) int {
	for i, b := range BytesFieldBucketBounds {
		if n >= b[0] && (b[1] == Unbounded || n <= b[1]) {
			return i
		}
	}
	return len(BytesFieldBucketBounds) - 1
}

// densityIndex returns the Figure 7 bucket for a density value.
func densityIndex(d float64) int {
	buckets := FieldDensity()
	for i, b := range buckets {
		if d >= b.Lo && d < b.Hi {
			return i
		}
	}
	return len(buckets) - 1
}

// SampleTopLevel records one top-level message and its complete sub-tree,
// as protobufz does when a message is selected.
func (s *Sampler) SampleTopLevel(m *dynamic.Message) {
	s.Messages++
	size := uint64(codec.Size(m))
	idx := bucketIndex(size)
	s.MessageSizeCounts[idx]++
	s.MessageSizeBytes[idx] += size
	s.sampleMessage(m, 0)
}

func (s *Sampler) sampleMessage(m *dynamic.Message, depth int) {
	for len(s.BytesAtDepth) <= depth {
		s.BytesAtDepth = append(s.BytesAtDepth, 0)
	}
	t := m.Type()
	present := 0
	for _, f := range t.Fields {
		if !m.Has(f.Number) {
			continue
		}
		present++
		key := TypeKey{f.Kind, f.Repeated()}
		tagSize := uint64(wire.SizeTag(f.Number))
		switch {
		case f.Kind == schema.KindMessage:
			// Sub-messages are accounted via their contained fields
			// (Figure 4a note); recurse.
			subs := []*dynamic.Message{}
			if f.Repeated() {
				subs = m.RepeatedMessages(f.Number)
			} else if sub := m.GetMessage(f.Number); sub != nil {
				subs = append(subs, sub)
			}
			for _, sub := range subs {
				s.sampleMessage(sub, depth+1)
			}
		case f.Kind.Class() == schema.ClassBytesLike:
			var blobs [][]byte
			if f.Repeated() {
				blobs = m.RepeatedBytes(f.Number)
			} else {
				blobs = [][]byte{m.GetBytes(f.Number)}
			}
			for _, b := range blobs {
				n := uint64(len(b))
				s.FieldCounts[key]++
				enc := tagSize + uint64(wire.SizeVarint(n)) + n
				s.FieldBytes[key] += enc
				bi := bytesFieldBucketIndex(n)
				s.BytesFieldCounts[bi]++
				s.BytesFieldBytes[bi] += n
				s.BytesAtDepth[depth] += enc
			}
		default:
			var vals []uint64
			if f.Repeated() {
				vals = m.RepeatedScalarBits(f.Number)
			} else {
				vals = []uint64{m.ScalarBits(f.Number)}
			}
			for _, bits := range vals {
				s.FieldCounts[key]++
				enc := tagSize + s.scalarEncSize(f, bits)
				s.FieldBytes[key] += enc
				s.BytesAtDepth[depth] += enc
			}
		}
	}
	if r := t.FieldNumberRange(); r > 0 {
		s.DensityCounts[densityIndex(float64(present)/float64(r))]++
	}
}

// scalarEncSize returns the encoded value size, recording varint sizes.
func (s *Sampler) scalarEncSize(f *schema.Field, bits uint64) uint64 {
	n := uint64(f.Kind.ValueSize(bits))
	if f.Kind.IsVarint() {
		s.VarintSizeBytes[n-1] += n
	}
	return n
}

// MessageSizeShares returns the sampled Figure 3 distribution (by count).
func (s *Sampler) MessageSizeShares() []float64 {
	return shares(s.MessageSizeCounts)
}

// BytesFieldShares returns the sampled Figure 4c distribution (by count).
func (s *Sampler) BytesFieldShares() []float64 {
	return shares(s.BytesFieldCounts)
}

// DensityShares returns the sampled Figure 7 distribution.
func (s *Sampler) DensityShares() []float64 {
	return shares(s.DensityCounts)
}

// FieldCountShares returns the sampled Figure 4a distribution.
func (s *Sampler) FieldCountShares() map[TypeKey]float64 {
	var total uint64
	for _, c := range s.FieldCounts {
		total += c
	}
	out := make(map[TypeKey]float64, len(s.FieldCounts))
	if total == 0 {
		return out
	}
	for k, c := range s.FieldCounts {
		out[k] = float64(c) / float64(total)
	}
	return out
}

// FieldByteShares returns the sampled Figure 4b distribution.
func (s *Sampler) FieldByteShares() map[TypeKey]float64 {
	var total uint64
	for _, c := range s.FieldBytes {
		total += c
	}
	out := make(map[TypeKey]float64, len(s.FieldBytes))
	if total == 0 {
		return out
	}
	for k, c := range s.FieldBytes {
		out[k] = float64(c) / float64(total)
	}
	return out
}

// DepthCoverage returns the smallest depth d such that at least quantile
// of all sampled bytes lie at depth ≤ d (1-indexed like the paper: top
// level = depth 1).
func (s *Sampler) DepthCoverage(quantile float64) int {
	var total uint64
	for _, b := range s.BytesAtDepth {
		total += b
	}
	if total == 0 {
		return 1
	}
	var cum uint64
	for d, b := range s.BytesAtDepth {
		cum += b
		if float64(cum) >= quantile*float64(total) {
			return d + 1
		}
	}
	return len(s.BytesAtDepth)
}

func shares(counts []uint64) []float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}
