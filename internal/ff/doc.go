// Package ff implements the finite fields used by the pairing layer:
// the prime field F_p and its quadratic extension F_p² = F_p[i]/(i²+1).
//
// The extension is constructed as a+bi with i² = −1, which requires the
// field characteristic p ≡ 3 (mod 4) so that −1 is a quadratic non-residue
// and x²+1 is irreducible. All parameter sets in internal/pairing satisfy
// this.
//
// Arithmetic runs on fixed-size [MaxLimbs]uint64 arrays in Montgomery
// form with value-independent control flow (see DESIGN.md §14 for the
// constant-time contract per function); math/big appears only at the
// public parameter-loading and serialization boundary. Each operation has
// one body, in destination-receiver form (z.SetMul(x, y); z may alias its
// operands; only the field's own limbs are touched), which the curve and
// pairing kernels call; the value methods (x.Mul(y)) are wrappers over it
// that return a fresh element, so a value shared across goroutines is
// never written unless someone passes its address as a destination.
//
// Lanes (lane.go) is a second representation for batched work: eight
// elements of one field side by side, multiplied, added and subtracted
// by one AVX-512 IFMA instruction stream where the processor has it
// (Field.HasLanes). Only pairing.PairBatch uses it.
package ff
