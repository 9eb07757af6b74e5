// Package farrar implements Farrar's striped Smith-Waterman algorithm
// (Farrar 2007, "Striped Smith-Waterman speeds database searches six times
// over other SIMD implementations"), the algorithm the paper runs on its
// multicore SSE slaves (§IV-C).
//
// The query is laid out in the striped pattern: with L vector lanes and
// segment length segLen = ceil(m/L), vector element (lane l, segment s)
// holds query position l*segLen + s, which moves the inter-lane dependency
// of the F (vertical gap) recurrence out of the inner loop into a rare
// correction pass.
//
// The kernel packs 8 byte lanes — or 4 word lanes in the fallback tier —
// into a uint64 and computes all lanes at once with the loop-free bit
// tricks of internal/simd/swar (SWAR: SIMD within a register). The
// package's tests keep a transcription of the SSE original on the
// emulated SSE2 ISA of internal/simd as a bit-exact oracle; it is slow,
// one Go loop iteration per lane, and no production code runs it.
//
// The overflow ladder has three rungs. The 8-bit tier holds DP values as
// biased unsigned bytes (Farrar's original formulation): the query
// profile carries bias = -matrix.Min(), so the largest score the tier can
// certify is 255 - bias, not 255 — a score reaching that ceiling may have
// been clipped by a saturating add and escalates. The 16-bit tier raises
// the ceiling to 32767 (a biased unsigned rendering of the paper's
// adapted signed variant, with the same ceiling), and the scalar
// reference resolves anything beyond.
//
// A Kernel precomputes the striped query profile once and scores many
// database sequences against it, trying the 8-bit kernel first and
// falling back on overflow, exactly like the SSE original.
package farrar

import (
	"fmt"

	"repro/internal/score"
	"repro/internal/sw"
)

// Stats counts kernel dispatch decisions across the lifetime of a Kernel.
type Stats struct {
	Scored8    int64 // sequences fully resolved by the 8-bit kernel
	Fallback16 int64 // sequences that overflowed 8-bit and used 16-bit
	FallbackSW int64 // sequences that overflowed 16-bit and used the scalar reference
}

// Kernel holds the striped query profiles for one query sequence.
type Kernel struct {
	query  []byte
	scheme score.Scheme

	bias   int  // -matrix.Min(), added to 8-bit profile entries
	tier8  bool // the 8-bit tier's fixed-point assumptions hold
	tier16 bool // the 16-bit tier's fixed-point assumptions hold

	// SWAR profiles; the 16-bit one is built lazily. Byte lane l of
	// swarProf8[r][s] holds the biased score of query position
	// l*swarSegLen8 + s against residue r.
	swarSegLen8  int
	swarProf8    [][]uint64
	swarSegLen16 int
	swarProf16   [][]uint64

	stats Stats
}

// NewKernel validates the inputs and prepares the query's kernel.
func NewKernel(query []byte, s score.Scheme) (*Kernel, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(query) == 0 {
		return nil, fmt.Errorf("farrar: empty query")
	}
	if err := s.Matrix.Alphabet().Validate(query); err != nil {
		return nil, fmt.Errorf("farrar: query: %w", err)
	}
	k := &Kernel{query: query, scheme: s, bias: -s.Matrix.Min()}
	if k.bias < 0 {
		k.bias = 0
	}
	// Tier admission: the narrow kernels hold profile entries, gap
	// penalties and DP cells in fixed-width lanes; a scheme whose
	// constants do not fit would wrap silently and mis-score, so such
	// schemes skip the tier entirely instead (the overflow ladder ends at
	// the scalar reference, which has no such limits).
	gapOE := s.Gap.Open + s.Gap.Extend
	k.tier8 = k.bias <= 255 && k.bias+s.Matrix.Max() <= 255 && gapOE <= 255
	k.tier16 = k.bias <= 32767 && k.bias+s.Matrix.Max() <= 32767 && gapOE <= 32767
	// Build the 8-bit profile eagerly so the construction cost lands on
	// NewKernel, not the first Score; the 16-bit one is built on first use.
	if k.tier8 {
		k.buildSwarProfile8()
	}
	return k, nil
}

// Query returns the query sequence the kernel was built for.
func (k *Kernel) Query() []byte { return k.query }

// Stats returns cumulative kernel dispatch counters.
func (k *Kernel) Stats() Stats { return k.stats }

// ceiling8 is the largest score the 8-bit tier can certify: DP cells are
// biased unsigned bytes, saturating adds clip at 255, and the bias is
// subtracted back out — so a result of 255 - bias is indistinguishable
// from a clipped larger score and must escalate.
func (k *Kernel) ceiling8() int { return 255 - k.bias }

// Score returns the optimal local alignment score of the kernel's query vs
// target, automatically escalating 8-bit -> 16-bit -> scalar on overflow.
func (k *Kernel) Score(target []byte) int {
	if sc, ok := k.ScoreSWAR8(target); ok {
		k.stats.Scored8++
		return sc
	}
	if sc, ok := k.ScoreSWAR16(target); ok {
		k.stats.Fallback16++
		return sc
	}
	k.stats.FallbackSW++
	return sw.Score(k.query, target, k.scheme)
}

// Cells returns the DP cell count of scoring target, the GCUPS currency.
func (k *Kernel) Cells(target []byte) int64 {
	return sw.Cells(len(k.query), len(target))
}
