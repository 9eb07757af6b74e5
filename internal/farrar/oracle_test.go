package farrar

import (
	"repro/internal/score"
	"repro/internal/simd"
	"repro/internal/sw"
)

// This file is the bit-exact test oracle for the SWAR kernel: Farrar's
// striped recurrences transcribed onto the emulated SSE2 ISA of
// internal/simd, 16 byte lanes (8-bit tier) or 8 signed word lanes
// (16-bit tier) per 128-bit register, one Go loop iteration per lane.
// It is slow and lives only in tests; the differential tests, the fuzzer
// and the BenchmarkScore{8,16}Emulated benchmarks compare the production
// kernel against it.

const (
	lanes8  = 16 // byte lanes in an emulated 128-bit register
	lanes16 = 8  // 16-bit lanes in an emulated 128-bit register
)

// emulated scores one query on the emulated ISA. It shares NewKernel's
// validation, bias and tier admission, so a divergence from the SWAR
// kernel can only come from the recurrences themselves.
type emulated struct {
	query  []byte
	scheme score.Scheme
	bias   int
	tier8  bool
	tier16 bool

	segLen8  int
	prof8    [][]simd.U8x16 // prof8[residueIndex][segment]
	segLen16 int
	prof16   [][]simd.I16x8

	stats Stats
}

func newEmulated(query []byte, s score.Scheme) (*emulated, error) {
	k, err := NewKernel(query, s)
	if err != nil {
		return nil, err
	}
	return &emulated{query: k.query, scheme: k.scheme, bias: k.bias, tier8: k.tier8, tier16: k.tier16}, nil
}

// Query returns the query sequence the oracle was built for.
func (k *emulated) Query() []byte { return k.query }

// Stats returns the oracle's cumulative tier counters.
func (k *emulated) Stats() Stats { return k.stats }

// Score runs the same 8-bit -> 16-bit -> scalar ladder as Kernel.Score.
func (k *emulated) Score(target []byte) int {
	if sc, ok := k.ScoreU8(target); ok {
		k.stats.Scored8++
		return sc
	}
	if sc, ok := k.ScoreI16(target); ok {
		k.stats.Fallback16++
		return sc
	}
	k.stats.FallbackSW++
	return sw.Score(k.query, target, k.scheme)
}

func (k *emulated) buildProfile8() {
	m := len(k.query)
	k.segLen8 = (m + lanes8 - 1) / lanes8
	alpha := k.scheme.Matrix.Alphabet()
	// One row per alphabet residue plus a final all-minimum row used for
	// database residues outside the alphabet (matching the scalar
	// reference, which scores them at the matrix minimum).
	k.prof8 = make([][]simd.U8x16, alpha.Size()+1)
	for r := 0; r <= alpha.Size(); r++ {
		segs := make([]simd.U8x16, k.segLen8)
		var row []int
		if r < alpha.Size() {
			row = k.scheme.Matrix.Row(r)
		}
		for s := 0; s < k.segLen8; s++ {
			var v simd.U8x16
			for l := 0; l < lanes8; l++ {
				qi := l*k.segLen8 + s
				if qi >= m {
					// Padding lanes hold biased zero — the most negative
					// representable entry — so phantom rows past the query
					// end can only decay (or, with bias 0, carry a real
					// value unchanged) and never outgrow the true maximum.
					// Matrix.Min() here would grow phantoms when Min > 0.
					continue
				}
				sc := k.scheme.Matrix.Min() // invalid residues score worst, like the scalar reference
				if row != nil {
					sc = row[alpha.Index(k.query[qi])]
				}
				v[l] = uint8(sc + k.bias)
			}
			segs[s] = v
		}
		k.prof8[r] = segs
	}
}

func (k *emulated) buildProfile16() {
	m := len(k.query)
	k.segLen16 = (m + lanes16 - 1) / lanes16
	alpha := k.scheme.Matrix.Alphabet()
	k.prof16 = make([][]simd.I16x8, alpha.Size()+1)
	for r := 0; r <= alpha.Size(); r++ {
		segs := make([]simd.I16x8, k.segLen16)
		var row []int
		if r < alpha.Size() {
			row = k.scheme.Matrix.Row(r)
		}
		for s := 0; s < k.segLen16; s++ {
			var v simd.I16x8
			for l := 0; l < lanes16; l++ {
				qi := l*k.segLen16 + s
				if qi >= m {
					v[l] = -32768 // padding: saturating add floors, so phantoms never grow
					continue
				}
				sc := k.scheme.Matrix.Min()
				if row != nil {
					sc = row[alpha.Index(k.query[qi])]
				}
				v[l] = int16(sc)
			}
			segs[s] = v
		}
		k.prof16[r] = segs
	}
}

// ScoreU8 runs the emulated-ISA 8-bit saturating kernel, the oracle for
// ScoreSWAR8. ok is false when the score may have overflowed the 8-bit
// range.
func (k *emulated) ScoreU8(target []byte) (sc int, ok bool) {
	if len(target) == 0 {
		return 0, true
	}
	if !k.tier8 {
		return 0, false
	}
	if k.prof8 == nil {
		k.buildProfile8()
	}
	segLen := k.segLen8
	alpha := k.scheme.Matrix.Alphabet()
	vBias := simd.SplatU8(uint8(k.bias))
	vGapOE := simd.SplatU8(uint8(k.scheme.Gap.Open + k.scheme.Gap.Extend))
	vGapE := simd.SplatU8(uint8(k.scheme.Gap.Extend))
	var vMax simd.U8x16

	vHLoad := make([]simd.U8x16, segLen)
	vHStore := make([]simd.U8x16, segLen)
	vE := make([]simd.U8x16, segLen)

	for _, c := range target {
		ri := alpha.Index(c)
		if ri < 0 {
			ri = alpha.Size() // all-minimum row for out-of-alphabet residues
		}
		prof := k.prof8[ri]

		var vF simd.U8x16
		// H of query position l*segLen-1 feeds lane l segment 0: shift the
		// last stored segment left one lane (zero fill = H[0][j-1] = 0).
		vH := simd.ShiftLanesLeftU8(vHLoad[segLen-1], 1)
		for s := 0; s < segLen; s++ {
			vH = simd.SubSatU8(simd.AddSatU8(vH, prof[s]), vBias)
			vH = simd.MaxU8(vH, vE[s])
			vH = simd.MaxU8(vH, vF)
			vMax = simd.MaxU8(vMax, vH)
			vHStore[s] = vH

			vHGap := simd.SubSatU8(vH, vGapOE)
			vE[s] = simd.MaxU8(simd.SubSatU8(vE[s], vGapE), vHGap)
			vF = simd.MaxU8(simd.SubSatU8(vF, vGapE), vHGap)
			vH = vHLoad[s]
		}

		// Lazy-F correction (Farrar's loop): keep sweeping the decaying F
		// carry through the striped column while it can still beat the
		// fresh gap openings the main pass already accounted for. The
		// carry decays by gapE >= 1 each step and the lane shift retires
		// it entirely after lanes8 sweeps, so the loop terminates; the
		// guard bounds it defensively, and if it ever were to expire the
		// kernel escalates to the next tier instead of returning a score
		// whose correction pass did not finish.
		vF = simd.ShiftLanesLeftU8(vF, 1)
		for s, guard := 0, segLen*(lanes8+1); simd.AnyGtU8(vF, simd.SubSatU8(vHStore[s], vGapOE)); guard-- {
			if guard <= 0 {
				return 0, false
			}
			nh := simd.MaxU8(vHStore[s], vF)
			if nh != vHStore[s] {
				vHStore[s] = nh
				vMax = simd.MaxU8(vMax, nh)
				// A raised H can feed a horizontal gap in the next column.
				vE[s] = simd.MaxU8(vE[s], simd.SubSatU8(nh, vGapOE))
			}
			vF = simd.SubSatU8(vF, vGapE)
			if s++; s == segLen {
				s = 0
				vF = simd.ShiftLanesLeftU8(vF, 1)
			}
		}

		vHLoad, vHStore = vHStore, vHLoad
	}
	best := int(simd.HMaxU8(vMax))
	if best >= 255-k.bias { // the Kernel.ceiling8 rule
		return 0, false // a saturating add may have clipped the true score
	}
	return best, true
}

// ScoreI16 runs the emulated-ISA 16-bit signed kernel, the paper's
// adapted variant and the oracle for ScoreSWAR16. ok is false when the
// score reached the int16 ceiling.
func (k *emulated) ScoreI16(target []byte) (sc int, ok bool) {
	if len(target) == 0 {
		return 0, true
	}
	if !k.tier16 {
		return 0, false
	}
	if k.prof16 == nil {
		k.buildProfile16()
	}
	segLen := k.segLen16
	alpha := k.scheme.Matrix.Alphabet()
	vGapOE := simd.SplatI16(int16(k.scheme.Gap.Open + k.scheme.Gap.Extend))
	vGapE := simd.SplatI16(int16(k.scheme.Gap.Extend))
	var vZero simd.I16x8
	vMax := simd.SplatI16(0)

	vHLoad := make([]simd.I16x8, segLen)
	vHStore := make([]simd.I16x8, segLen)
	vE := make([]simd.I16x8, segLen)

	for _, c := range target {
		ri := alpha.Index(c)
		if ri < 0 {
			ri = alpha.Size()
		}
		prof := k.prof16[ri]

		vF := vZero
		vH := simd.ShiftLanesLeftI16(vHLoad[segLen-1], 1, 0)
		for s := 0; s < segLen; s++ {
			vH = simd.AddSatI16(vH, prof[s])
			vH = simd.MaxI16(vH, vE[s])
			vH = simd.MaxI16(vH, vF)
			vH = simd.MaxI16(vH, vZero) // the Smith-Waterman 0 floor
			vMax = simd.MaxI16(vMax, vH)
			vHStore[s] = vH

			vHGap := simd.SubSatI16(vH, vGapOE)
			vE[s] = simd.MaxI16(simd.SubSatI16(vE[s], vGapE), vHGap)
			vF = simd.MaxI16(simd.SubSatI16(vF, vGapE), vHGap)
			vH = vHLoad[s]
		}

		// Lazy-F correction, signed flavor. The shift fills with the int16
		// minimum (F of the row-0 boundary is -infinity); filling with 0
		// would keep the carry alive forever against negative thresholds.
		// Guard expiry escalates, as in the 8-bit kernel.
		vF = simd.ShiftLanesLeftI16(vF, 1, -32768)
		for s, guard := 0, segLen*(lanes16+1); simd.AnyGtI16(vF, simd.SubSatI16(vHStore[s], vGapOE)); guard-- {
			if guard <= 0 {
				return 0, false
			}
			nh := simd.MaxI16(vHStore[s], vF)
			if nh != vHStore[s] {
				vHStore[s] = nh
				vMax = simd.MaxI16(vMax, nh)
				vE[s] = simd.MaxI16(vE[s], simd.SubSatI16(nh, vGapOE))
			}
			vF = simd.SubSatI16(vF, vGapE)
			if s++; s == segLen {
				s = 0
				vF = simd.ShiftLanesLeftI16(vF, 1, -32768)
			}
		}

		vHLoad, vHStore = vHStore, vHLoad
	}
	best := int(simd.HMaxI16(vMax))
	if best >= 32767 {
		return 0, false
	}
	return best, true
}
