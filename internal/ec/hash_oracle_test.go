package ec_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"sort"
	"testing"

	"mwskit/internal/ec"
	"mwskit/internal/ff"
	"mwskit/internal/pairing"
)

// This file is H1's test oracle: the map HashToCurvePoint and
// HashToSubgroup document, written again in math/big alone and sharing no
// code with them — the SHA-256 expansion, Euler's criterion for the
// residue test, big.ModSqrt for the root, the even-root rule, and an
// explicit multiplication by the cofactor h. Any change to how H1 finds
// its root or clears h must keep every point it makes.

// refCurve is y² = x³ + x over F_p with the subgroup order q and the
// cofactor h = (p+1)/q, in math/big.
type refCurve struct {
	p, q, h *big.Int
}

func newRefCurve(p, q *big.Int) *refCurve {
	h := new(big.Int).Add(p, big.NewInt(1))
	return &refCurve{p: p, q: q, h: h.Quo(h, q)}
}

// refPoint is an affine point; inf marks the identity.
type refPoint struct {
	x, y *big.Int
	inf  bool
}

// hashToCurve is try-and-increment: for ctr = 0, 1, …, x is the
// big-endian integer of the first ⌈log₂₅₆ p⌉ bytes of the chained blocks
// SHA-256(domain ‖ ctr ‖ block ‖ msg) (ctr and block as four big-endian
// bytes each), reduced mod p; the first x where x³ + x is a square (zero
// included) takes its even root. It also returns how many candidates it
// tried.
func (rc *refCurve) hashToCurve(domain string, msg []byte) (refPoint, int) {
	byteLen := (rc.p.BitLen() + 7) / 8
	euler := new(big.Int).Rsh(rc.p, 1) // (p−1)/2
	one := big.NewInt(1)
	for ctr := uint32(0); ctr < 256; ctr++ {
		var out []byte
		for block := uint32(0); len(out) < byteLen; block++ {
			h := sha256.New()
			h.Write([]byte(domain))
			var hdr [8]byte
			binary.BigEndian.PutUint32(hdr[:4], ctr)
			binary.BigEndian.PutUint32(hdr[4:], block)
			h.Write(hdr[:])
			h.Write(msg)
			out = h.Sum(out)
		}
		x := new(big.Int).SetBytes(out[:byteLen])
		x.Mod(x, rc.p)
		rhs := new(big.Int).Mul(x, x)
		rhs.Add(rhs, one).Mul(rhs, x).Mod(rhs, rc.p) // x³ + x
		if rhs.Sign() != 0 && new(big.Int).Exp(rhs, euler, rc.p).Cmp(one) != 0 {
			continue
		}
		y := new(big.Int).ModSqrt(rhs, rc.p)
		if y.Bit(0) == 1 {
			y.Sub(rc.p, y)
		}
		return refPoint{x: x, y: y}, int(ctr) + 1
	}
	panic("reference hash-to-curve found no residue")
}

// hashToSubgroup is hashToCurve followed by h·R, re-entering with
// "#retry" appended to the domain while h·R is the identity, at most four
// times. retried reports whether it had to.
func (rc *refCurve) hashToSubgroup(domain string, msg []byte) (g refPoint, retried bool) {
	for i := 0; i < 4; i++ {
		r, _ := rc.hashToCurve(domain, msg)
		if g = rc.mul(r, rc.h); !g.inf {
			return g, i > 0
		}
		domain += "#retry"
	}
	panic("reference hash-to-subgroup produced the identity")
}

// mul returns k·r by left-to-right double-and-add in Jacobian
// coordinates (X/Z², Y/Z³), one inversion at the end.
func (rc *refCurve) mul(r refPoint, k *big.Int) refPoint {
	p := rc.p
	mod := func(z *big.Int) *big.Int { return z.Mod(z, p) }
	mulm := func(a, b *big.Int) *big.Int { return mod(new(big.Int).Mul(a, b)) }
	subm := func(a, b *big.Int) *big.Int { return mod(new(big.Int).Sub(a, b)) }
	small := func(c int64, a *big.Int) *big.Int { return mulm(big.NewInt(c), a) }
	var X, Y, Z *big.Int
	inf := true
	double := func() {
		if inf || Y.Sign() == 0 {
			inf = true
			return
		}
		yy, zz := mulm(Y, Y), mulm(Z, Z)
		s := small(4, mulm(X, yy))
		m := mod(new(big.Int).Add(small(3, mulm(X, X)), mulm(zz, zz))) // 3X² + a·Z⁴, a = 1
		x3 := subm(mulm(m, m), small(2, s))
		y3 := subm(mulm(m, subm(s, x3)), small(8, mulm(yy, yy)))
		Z = small(2, mulm(Y, Z))
		X, Y = x3, y3
	}
	add := func() { // += r, r affine and finite
		if inf {
			X, Y, Z, inf = new(big.Int).Set(r.x), new(big.Int).Set(r.y), big.NewInt(1), false
			return
		}
		zz := mulm(Z, Z)
		hh := subm(mulm(r.x, zz), X)
		rr := subm(mulm(r.y, mulm(Z, zz)), Y)
		if hh.Sign() == 0 {
			if rr.Sign() == 0 {
				double()
			} else {
				inf = true
			}
			return
		}
		h2 := mulm(hh, hh)
		h3 := mulm(h2, hh)
		v := mulm(X, h2)
		x3 := subm(subm(mulm(rr, rr), h3), small(2, v))
		Y = subm(mulm(rr, subm(v, x3)), mulm(Y, h3))
		X, Z = x3, mulm(Z, hh)
	}
	if r.inf {
		return refPoint{inf: true}
	}
	for i := k.BitLen() - 1; i >= 0; i-- {
		double()
		if k.Bit(i) == 1 {
			add()
		}
	}
	if inf {
		return refPoint{inf: true}
	}
	zi := new(big.Int).ModInverse(Z, p)
	zi2 := mulm(zi, zi)
	return refPoint{x: mulm(X, zi2), y: mulm(Y, mulm(zi2, zi))}
}

func sameRefPoint(got ec.Point, want refPoint) bool {
	if got.Inf || want.inf {
		return got.Inf == want.inf
	}
	return got.X.BigInt().Cmp(want.x) == 0 && got.Y.BigInt().Cmp(want.y) == 0
}

// TestHashToCurveOracle checks HashToCurvePoint against the reference on
// 1 000 messages per preset, and HashToSubgroup on as many for test and
// bf80 and on 100 for bf112, whose 800-bit cofactor takes the reference
// ≈ 20 ms a point (a tenth of each under -short or the race detector).
// It reports how many candidates the map tried: two on average, as half
// of all x are abscissas.
func TestHashToCurveOracle(t *testing.T) {
	names := make([]string, 0, len(pairing.Presets))
	for name := range pairing.Presets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pp := pairing.Presets[name]
		c := ec.MustCurve(ff.MustField(pp.P), pp.Q)
		rc := newRefCurve(pp.P, pp.Q)
		n, nSub := 1000, 1000
		if name == "bf112" {
			nSub = 100
		}
		if testing.Short() || ec.RaceEnabled {
			n, nSub = n/10, nSub/10
		}
		tries := 0
		for i := range n {
			msg := []byte(fmt.Sprintf("oracle-%s-%d", name, i))
			want, k := rc.hashToCurve("mwskit/ec/oracle/v1", msg)
			tries += k
			got, err := c.HashToCurvePoint("mwskit/ec/oracle/v1", msg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRefPoint(got, want) {
				t.Fatalf("%s: message %d: HashToCurvePoint = %v, reference (%v, %v)", name, i, got, want.x, want.y)
			}
			if i >= nSub {
				continue
			}
			g, err := c.HashToSubgroup("mwskit/ec/oracle/v1", msg)
			if err != nil {
				t.Fatal(err)
			}
			if wantG, _ := rc.hashToSubgroup("mwskit/ec/oracle/v1", msg); !sameRefPoint(g, wantG) {
				t.Fatalf("%s: message %d: HashToSubgroup differs from h·R", name, i)
			}
		}
		t.Logf("%s: %d messages, %.2f candidates each", name, n, float64(tries)/float64(n))
	}
}

// TestHashToSubgroupOracleRetry runs the q = 263 toy curves — p = 1051
// (h = 4) and p = 6311 (h = 24) — where one hashed point in 263 has
// h·R = ∞, until the reference has re-entered under "#retry" at least
// once, checking every message on the way.
func TestHashToSubgroupOracleRetry(t *testing.T) {
	for _, p := range []int64{1051, 6311} {
		pb, q := big.NewInt(p), big.NewInt(263)
		c := ec.MustCurve(ff.MustField(pb), q)
		rc := newRefCurve(pb, q)
		retried, i := false, 0
		for ; !retried && i < 100000; i++ {
			msg := []byte(fmt.Sprintf("oracle-retry-%d", i))
			var want refPoint
			want, retried = rc.hashToSubgroup("toy", msg)
			r, _ := rc.hashToCurve("toy", msg)
			gotR, err := c.HashToCurvePoint("toy", msg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRefPoint(gotR, r) {
				t.Fatalf("p = %d: message %d: HashToCurvePoint differs from the reference", p, i)
			}
			got, err := c.HashToSubgroup("toy", msg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRefPoint(got, want) {
				t.Fatalf("p = %d: message %d (retried %v): HashToSubgroup differs from the reference", p, i, retried)
			}
		}
		if !retried {
			t.Fatalf("p = %d: no message reached the #retry branch", p)
		}
		t.Logf("p = %d: first #retry at message %d", p, i-1)
	}
}
