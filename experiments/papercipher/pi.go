package papercipher

import (
	"math/big"
	"sync"
)

// Blowfish initializes its P-array and S-boxes with the hexadecimal
// digits of π. Rather than embedding the 4,168-byte table, we compute it
// once on first use with Machin's formula
//
//	π = 16·arctan(1/5) − 4·arctan(1/239)
//
// in fixed-point big-integer arithmetic. TestPiWordsMatchPublishedConstants
// pins the output against the published table values (P[0] = 0x243F6A88,
// S[0][0] = 0xD1310BA6, …), so a regression in this code cannot silently
// produce a "different Blowfish".

// piWordsNeeded is the number of 32-bit words of π's fraction Blowfish
// consumes: 18 P-entries + 4 S-boxes × 256 entries.
const piWordsNeeded = 18 + 4*256

var (
	piOnce  sync.Once
	piWords [piWordsNeeded]uint32
)

// piFractionWords returns the first piWordsNeeded 32-bit words of the
// fractional part of π (most significant first).
func piFractionWords() *[piWordsNeeded]uint32 {
	piOnce.Do(func() {
		const guard = 128
		prec := uint(piWordsNeeded*32 + guard)

		pi := new(big.Int).Mul(big.NewInt(16), atanInvScaled(5, prec))
		pi.Sub(pi, new(big.Int).Mul(big.NewInt(4), atanInvScaled(239, prec)))

		// Remove the integer part (3) to keep only the fraction.
		intPart := new(big.Int).Lsh(big.NewInt(3), prec)
		frac := pi.Sub(pi, intPart)

		mask := big.NewInt(0xFFFFFFFF)
		word := new(big.Int)
		for i := 0; i < piWordsNeeded; i++ {
			shift := prec - uint(32*(i+1))
			word.Rsh(frac, shift)
			word.And(word, mask)
			piWords[i] = uint32(word.Uint64())
		}
	})
	return &piWords
}

// atanInvScaled computes arctan(1/x) · 2^prec by the Taylor series
// Σ (−1)^k / ((2k+1)·x^(2k+1)), truncating when the term underflows the
// fixed-point scale.
func atanInvScaled(x int64, prec uint) *big.Int {
	bigX2 := big.NewInt(x * x)
	term := new(big.Int).Lsh(big.NewInt(1), prec)
	term.Div(term, big.NewInt(x))
	sum := new(big.Int)
	tmp := new(big.Int)
	for k, neg := int64(0), false; term.Sign() != 0; k, neg = k+1, !neg {
		tmp.Div(term, big.NewInt(2*k+1))
		if neg {
			sum.Sub(sum, tmp)
		} else {
			sum.Add(sum, tmp)
		}
		term.Div(term, bigX2)
	}
	return sum
}
