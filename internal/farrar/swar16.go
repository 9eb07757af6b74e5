package farrar

import "repro/internal/simd/swar"

// This file is the native-speed 16-bit fallback tier: 4 word lanes packed
// in a uint64. Unlike the tests' emulated ScoreI16 — which transcribes the SSE
// original's *signed* 16-bit arithmetic — this kernel keeps Farrar's
// biased *unsigned* formulation from the 8-bit tier, because the unsigned
// saturating bit tricks are what a packed word computes cheaply. The two
// renderings agree wherever both certify a score:
//
//   - Unsigned E/F hold max(signed E/F, 0); a clamped-to-zero gap state
//     can never win a max against H >= 0, so H is identical.
//   - The unsigned cells clip at 65535 while bias+matrix.Max() <= 32767
//     (the tier16 admission bound), so no cell under 32767 is ever
//     clipped; conversely any clipped run has best >= 32767 in both
//     kernels. Escalating at best >= 32767 therefore makes the two
//     implementations return identical (score, ok) pairs.

// buildSwarProfile16 packs the striped biased word profile: 16-bit lane l
// of swarProf16[r][s] holds score(query[l*segLen+s], r) + bias.
func (k *Kernel) buildSwarProfile16() {
	m := len(k.query)
	k.swarSegLen16 = (m + swar.Lanes16 - 1) / swar.Lanes16
	alpha := k.scheme.Matrix.Alphabet()
	k.swarProf16 = make([][]uint64, alpha.Size()+1)
	for r := 0; r <= alpha.Size(); r++ {
		segs := make([]uint64, k.swarSegLen16)
		var row []int
		if r < alpha.Size() {
			row = k.scheme.Matrix.Row(r)
		}
		for s := 0; s < k.swarSegLen16; s++ {
			var v uint64
			for l := 0; l < swar.Lanes16; l++ {
				qi := l*k.swarSegLen16 + s
				if qi >= m {
					continue // padding lanes hold biased zero so phantom rows never grow
				}
				sc := k.scheme.Matrix.Min()
				if row != nil {
					sc = row[alpha.Index(k.query[qi])]
				}
				v |= uint64(uint16(sc+k.bias)) << (16 * l)
			}
			segs[s] = v
		}
		k.swarProf16[r] = segs
	}
}

// ScoreSWAR16 runs the packed-word 16-bit kernel. ok is false when the
// score reached the ladder's 32767 ceiling.
func (k *Kernel) ScoreSWAR16(target []byte) (sc int, ok bool) {
	if len(target) == 0 {
		return 0, true
	}
	if !k.tier16 {
		return 0, false
	}
	if k.swarProf16 == nil {
		k.buildSwarProfile16()
	}
	segLen := k.swarSegLen16
	alpha := k.scheme.Matrix.Alphabet()
	vBias := swar.Splat16(uint16(k.bias))
	vGapOE := swar.Splat16(uint16(k.scheme.Gap.Open + k.scheme.Gap.Extend))
	vGapE := swar.Splat16(uint16(k.scheme.Gap.Extend))
	var vMax uint64

	vHLoad := make([]uint64, segLen)
	vHStore := make([]uint64, segLen)
	vE := make([]uint64, segLen)

	for _, c := range target {
		ri := alpha.Index(c)
		if ri < 0 {
			ri = alpha.Size()
		}
		prof := k.swarProf16[ri][:segLen] // len hint: elides bounds checks below

		var vF uint64
		vH := swar.ShiftLane16(vHLoad[segLen-1])
		for s := 0; s < segLen; s++ {
			vH = swar.SubSat16(swar.AddSat16(vH, prof[s]), vBias)
			vH = swar.Max16(vH, vE[s])
			vH = swar.Max16(vH, vF)
			vMax = swar.Max16(vMax, vH)
			vHStore[s] = vH

			vHGap := swar.SubSat16(vH, vGapOE)
			vE[s] = swar.Max16(swar.SubSat16(vE[s], vGapE), vHGap)
			vF = swar.Max16(swar.SubSat16(vF, vGapE), vHGap)
			vH = vHLoad[s]
		}

		// Lazy-F correction. The unsigned rendering shifts zeros in (F at
		// the row-0 boundary clamps to the zero floor, not -infinity), and
		// a zero lane can never beat a saturating-subtracted threshold by
		// strict greater-than, so the carry still retires after Lanes16
		// sweeps. Guard expiry escalates, as everywhere else.
		vF = swar.ShiftLane16(vF)
		for s, guard := 0, segLen*(swar.Lanes16+1); swar.AnyGt16(vF, swar.SubSat16(vHStore[s], vGapOE)); guard-- {
			if guard <= 0 {
				return 0, false
			}
			nh := swar.Max16(vHStore[s], vF)
			if nh != vHStore[s] {
				vHStore[s] = nh
				vMax = swar.Max16(vMax, nh)
				vE[s] = swar.Max16(vE[s], swar.SubSat16(nh, vGapOE))
			}
			vF = swar.SubSat16(vF, vGapE)
			if s++; s == segLen {
				s = 0
				vF = swar.ShiftLane16(vF)
			}
		}

		vHLoad, vHStore = vHStore, vHLoad
	}
	best := int(swar.HMax16(vMax))
	if best >= 32767 {
		return 0, false
	}
	return best, true
}
