package papercipher

import (
	"encoding/binary"
	"fmt"
)

// Blowfish is Bruce Schneier's 1993 64-bit block cipher, implemented from
// the specification: a 16-round Feistel network whose subkeys (P-array)
// and S-boxes start as the hexadecimal expansion of π and are then mixed
// with the user key by repeated self-encryption. It is included because
// the paper names it as an admissible message cipher alongside DES (§IV);
// modern deployments should prefer AES-GCM.
//
// Blowfish implements crypto/cipher.Block (BlockSize 8).
type Blowfish struct {
	p [18]uint32
	s [4][256]uint32
}

// NewBlowfish expands a key of 1 to 56 bytes into a cipher instance.
func NewBlowfish(key []byte) (*Blowfish, error) {
	if len(key) < 1 || len(key) > 56 {
		return nil, fmt.Errorf("papercipher: blowfish key must be 1..56 bytes, got %d", len(key))
	}
	c := &Blowfish{}
	pi := piFractionWords()
	copy(c.p[:], pi[:18])
	for box := 0; box < 4; box++ {
		copy(c.s[box][:], pi[18+box*256:18+(box+1)*256])
	}

	// Phase 1: XOR the P-array with the key, cycling the key as needed.
	j := 0
	for i := 0; i < 18; i++ {
		var w uint32
		for k := 0; k < 4; k++ {
			w = w<<8 | uint32(key[j])
			j++
			if j == len(key) {
				j = 0
			}
		}
		c.p[i] ^= w
	}

	// Phase 2: repeatedly encrypt the all-zero block, replacing the
	// P-array and S-boxes with the successive outputs.
	var l, r uint32
	for i := 0; i < 18; i += 2 {
		l, r = c.encryptWords(l, r)
		c.p[i], c.p[i+1] = l, r
	}
	for box := 0; box < 4; box++ {
		for i := 0; i < 256; i += 2 {
			l, r = c.encryptWords(l, r)
			c.s[box][i], c.s[box][i+1] = l, r
		}
	}
	return c, nil
}

// BlockSize returns the Blowfish block size, 8 bytes.
func (c *Blowfish) BlockSize() int { return 8 }

// f is the Blowfish round function.
//
//mwslint:ignore ctflow Blowfish's F function is S-box-driven by design; cache-timing hardening means replacing the cipher (DESIGN.md), not masking these loads
func (c *Blowfish) f(x uint32) uint32 {
	a := c.s[0][x>>24]
	b := c.s[1][x>>16&0xFF]
	cc := c.s[2][x>>8&0xFF]
	d := c.s[3][x&0xFF]
	return ((a + b) ^ cc) + d
}

// encryptWords runs the 16-round Feistel network forward.
func (c *Blowfish) encryptWords(l, r uint32) (uint32, uint32) {
	for i := 0; i < 16; i += 2 {
		l ^= c.p[i]
		r ^= c.f(l)
		r ^= c.p[i+1]
		l ^= c.f(r)
	}
	l ^= c.p[16]
	r ^= c.p[17]
	return r, l
}

// decryptWords runs the network with the subkeys reversed.
func (c *Blowfish) decryptWords(l, r uint32) (uint32, uint32) {
	for i := 17; i > 1; i -= 2 {
		l ^= c.p[i]
		r ^= c.f(l)
		r ^= c.p[i-1]
		l ^= c.f(r)
	}
	l ^= c.p[1]
	r ^= c.p[0]
	return r, l
}

// Encrypt encrypts one 8-byte block from src into dst (may alias).
func (c *Blowfish) Encrypt(dst, src []byte) {
	l := binary.BigEndian.Uint32(src[0:4])
	r := binary.BigEndian.Uint32(src[4:8])
	l, r = c.encryptWords(l, r)
	binary.BigEndian.PutUint32(dst[0:4], l)
	binary.BigEndian.PutUint32(dst[4:8], r)
}

// Decrypt decrypts one 8-byte block from src into dst (may alias).
func (c *Blowfish) Decrypt(dst, src []byte) {
	l := binary.BigEndian.Uint32(src[0:4])
	r := binary.BigEndian.Uint32(src[4:8])
	l, r = c.decryptWords(l, r)
	binary.BigEndian.PutUint32(dst[0:4], l)
	binary.BigEndian.PutUint32(dst[4:8], r)
}
