package pairing

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
)

// Params is a complete, self-consistent pairing parameter set: the prime
// field, the subgroup order, and a generator of G1. It corresponds to the
// "system parameters" the paper's PKG publishes in its Setup step
// (base point P, curve equation, field).
type Params struct {
	P *big.Int // field characteristic, p ≡ 3 (mod 4), q | p+1
	Q *big.Int // prime order of G1
	// Gx, Gy are the affine coordinates of the G1 generator.
	Gx, Gy *big.Int
}

// Validate checks the internal consistency of a parameter set: the field
// congruence, divisibility, primality (probabilistic), a cofactor
// (p+1)/q prime to q, generator curve membership, subgroup order, and
// pairing non-degeneracy ê(G, G) ≠ 1.
func (pp *Params) Validate() error {
	if pp.P == nil || pp.Q == nil || pp.Gx == nil || pp.Gy == nil {
		return errors.New("pairing: incomplete parameter set")
	}
	if !pp.P.ProbablyPrime(32) {
		return errors.New("pairing: p is not prime")
	}
	if !pp.Q.ProbablyPrime(32) {
		return errors.New("pairing: q is not prime")
	}
	sys, err := pp.System()
	if err != nil {
		return err
	}
	// G1 must be the whole q-torsion of E(F_p), and G1Precomp.PairCofactor
	// replaces the cofactor by its residue mod q, which must be a unit.
	if new(big.Int).Mod(sys.Curve.H, pp.Q).Sign() == 0 {
		return errors.New("pairing: q divides the cofactor (p+1)/q")
	}
	g := sys.G1()
	if !sys.Curve.IsOnCurve(g) {
		return errors.New("pairing: generator not on curve")
	}
	if !sys.Curve.ScalarBaseOrderCheck(g) {
		return errors.New("pairing: generator not of order q")
	}
	if sys.Pair(g, g).IsOne() {
		return errors.New("pairing: degenerate pairing at the generator")
	}
	return nil
}

// System is the runtime form of Params: the instantiated field, curve and
// pairing, plus the decoded generator. Immutable (the comb table is
// built at most once) and concurrency-safe.
type System struct {
	*Pairing
	g        ec.Point
	combOnce sync.Once
	comb     *ec.Comb
}

// System instantiates the runtime objects for the parameter set.
func (pp *Params) System() (*System, error) {
	f, err := ff.NewField(pp.P)
	if err != nil {
		return nil, err
	}
	c, err := ec.NewCurve(f, pp.Q)
	if err != nil {
		return nil, err
	}
	g, err := c.NewPoint(f.NewElement(pp.Gx), f.NewElement(pp.Gy))
	if err != nil {
		return nil, fmt.Errorf("pairing: bad generator: %w", err)
	}
	return &System{Pairing: New(c), g: g}, nil
}

// MustSystem instantiates a vetted preset, panicking on failure.
func (pp *Params) MustSystem() *System {
	s, err := pp.System()
	if err != nil {
		panic(err)
	}
	return s
}

// G1 returns the subgroup generator (the paper's base point P).
func (s *System) G1() ec.Point { return s.g }

// G1Comb returns the fixed-base precomputation table for the generator,
// built on first use and shared by every caller thereafter. It backs the
// hot fixed-base multiplications (Encapsulate's U = rP, Setup's sP) with
// a scalar-independent schedule; long-lived components (devices, the
// PKG) touch it at construction so the one-time build cost never lands
// on a deposit.
func (s *System) G1Comb() *ec.Comb {
	s.combOnce.Do(func() { s.comb = s.Curve.NewComb(s.g) })
	return s.comb
}

// RandomScalar returns a uniformly random scalar in [1, q−1], non-zero
// by construction.
func (s *System) RandomScalar(r io.Reader) (ec.Scalar, error) {
	return s.Curve.RandomScalar(r)
}

// Generate produces a fresh parameter set with a qBits-bit subgroup order
// and a pBits-bit field characteristic, sampling from rng. It searches for
// q prime, then for a cofactor c = 4m with p = c·q − 1 prime (which forces
// p ≡ 3 mod 4 and q | p+1), then derives a generator by hashing to the
// curve and clearing the cofactor. Generation is an offline operation —
// deployed systems use vetted presets.
func Generate(pBits, qBits int, rng io.Reader) (*Params, error) {
	if qBits < 32 || pBits < qBits+8 {
		return nil, errors.New("pairing: parameter sizes too small")
	}
	q, err := rand.Prime(rng, qBits)
	if err != nil {
		return nil, err
	}
	cBits := pBits - qBits
	one := big.NewInt(1)
	for attempt := 0; attempt < 100000; attempt++ {
		m, err := rand.Int(rng, new(big.Int).Lsh(one, uint(cBits-2)))
		if err != nil {
			return nil, err
		}
		// Force the cofactor into [2^(cBits-1), 2^cBits) and divisible by 4.
		c := new(big.Int).SetBit(m, cBits-2, 1)
		c.Lsh(c, 2)
		p := new(big.Int).Mul(c, q)
		p.Sub(p, one)
		if !p.ProbablyPrime(32) {
			continue
		}
		// Reject q² | p+1 so G1 is the full q-torsion over F_p and the
		// cofactor is a unit mod q (Validate checks the same).
		if new(big.Int).Mod(c, q).Sign() == 0 {
			continue
		}
		pp := &Params{P: p, Q: q}
		if err := pp.deriveGenerator(); err != nil {
			continue
		}
		return pp, nil
	}
	return nil, errors.New("pairing: parameter search exhausted")
}

// deriveGenerator fills in the generator coordinates by hashing a fixed
// seed to the subgroup.
func (pp *Params) deriveGenerator() error {
	f, err := ff.NewField(pp.P)
	if err != nil {
		return err
	}
	c, err := ec.NewCurve(f, pp.Q)
	if err != nil {
		return err
	}
	g, err := c.HashToSubgroup("mwskit/pairing/generator/v1", pp.Q.Bytes())
	if err != nil {
		return err
	}
	if g.Inf {
		return errors.New("pairing: generator derivation hit identity")
	}
	pp.Gx = g.X.BigInt()
	pp.Gy = g.Y.BigInt()
	return nil
}

func mustBig(dec string) *big.Int {
	v, ok := new(big.Int).SetString(dec, 10)
	if !ok {
		panic("pairing: bad embedded constant")
	}
	return v
}
