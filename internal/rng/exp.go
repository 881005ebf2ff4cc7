package rng

import "math"

// Exp returns a standard exponential variate, P(E > x) = e^(−x) for x ≥ 0,
// by the 256-layer ziggurat of Marsaglia and Tsang ("The Ziggurat Method for
// Generating Random Variables", J. Stat. Softw. 5(8), 2000).
//
// The region under e^(−x) is covered by 255 stacked rectangles and a base
// strip, all of equal area zigV. One Uint64 picks a layer (its low 8 bits)
// and a 53-bit position across it (its high 53 bits); about 97.8 % of draws
// land in the part of a layer that lies wholly under the curve and return
// after one multiply and one compare. The rest either test a wedge against
// math.Exp, with a second uniform, and half of those are rejected and
// redrawn, or land in the base strip's tail beyond zigR ≈ 7.697, which is
// exponential again and drawn as zigR − ln U. Those are the only draws that
// take a logarithm or an exponential. The result is exact up to float64
// rounding: the 53-bit position gives a skip scaled by 1/λ ≈ 10¹⁰ (p ≈ 10⁻¹⁰
// in Geo) a resolution far below one element, where a 32-bit ziggurat,
// math/rand's ExpFloat64, moves it in steps of up to ≈ 18.
func (r *Source) Exp() float64 {
	for {
		u := r.Uint64()
		i := u & 0xff
		j := u >> 11
		x := float64(j) * zigW[i]
		if j < zigK[i] {
			return x
		}
		if i == 0 {
			return zigR - math.Log(1-r.Float64())
		}
		if zigF[i]+r.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-x) {
			return x
		}
	}
}

// The ziggurat's constants for 256 layers: zigR is the right edge of the
// widest rectangle and zigV the common area, zigR·e^(−zigR) plus the tail
// ∫ e^(−x) beyond zigR.
const (
	zigR = 7.69711747013104972
	zigV = 3.949659822581572e-3
)

// The ziggurat's tables, built once by init for 53-bit positions j:
//   - zigW[i] maps j to x in layer i: x = j·zigW[i], from 0 to the layer's
//     right edge x_i (layer 0, the base strip, maps to zigV/e^(−zigR), so its
//     draws beyond zigR are the tail's share of its area);
//   - zigK[i] is the j below which x lies wholly under the curve: left of
//     x_(i−1), the next layer up's right edge, or of zigR in the base strip
//     (zigK[1] = 0: the top layer has no such part);
//   - zigF[i] = e^(−x_i), the curve at the layer's right edge, and
//     zigF[0] = 1, its top.
var (
	zigK [256]uint64
	zigW [256]float64
	zigF [256]float64
)

func init() {
	const m = 1 << 53
	x := zigR
	q := zigV / math.Exp(-x)
	zigK[0] = uint64(x / q * m)
	zigW[0] = q / m
	zigW[255] = x / m
	zigF[0] = 1
	zigF[255] = math.Exp(-x)
	for i := 254; i >= 1; i-- {
		next := x
		x = -math.Log(zigV/x + math.Exp(-x))
		zigK[i+1] = uint64(x / next * m)
		zigW[i] = x / m
		zigF[i] = math.Exp(-x)
	}
}
