// Package ticket implements the Kerberos-style credential objects of the
// paper's protocol (§V.C/D):
//
//	Ticket        = E(SecK_MWS-PKG, bindings ‖ SecK_RC-PKG ‖ metadata)
//	Token         = E(PubK_RC, SecK_RC-PKG ‖ Ticket)
//	Authenticator = E(SecK_RC-PKG, ID_RC ‖ T)
//
// The MWS Token Generator seals a Ticket under the long-term key it
// shares with the PKG, embeds it in a Token wrapped to the RC's public
// key, and the RC later presents Ticket + Authenticator to the PKG. The
// attribute strings ride *inside* the ticket while the RC only ever sees
// AIDs — the indirection that keeps clients ignorant of their own
// attributes (§V.D).
//
// Symmetric sealing uses AES-256-GCM (the paper's DES stands in for "any
// symmetric cipher"); the token wrap is RSA-OAEP carrying a fresh content
// key (hybrid, since tickets exceed an RSA block).
package ticket

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"time"

	"mwskit/internal/attr"
	"mwskit/internal/codec"
	"mwskit/internal/symenc"
)

// SessionKeyLen is the byte length of the RC–PKG session key carried in
// tickets and tokens.
const SessionKeyLen = 32

// sealScheme is the AEAD of every sealed object here: tickets, token
// bodies, authenticators and the RC–PKG session payloads.
var sealScheme = symenc.AES256GCM

// Ticket is the PKG-bound credential: who it was issued to, which grants
// (AID → attribute) it conveys, the RC–PKG session key, and issue time.
type Ticket struct {
	RC         string
	Bindings   []attr.Binding // attribute bindings; Identity field matches RC
	SessionKey []byte         // SecK_RC-PKG
	IssuedAt   int64          // Unix seconds
}

// NewSessionKey draws a fresh RC–PKG session key.
func NewSessionKey(rng io.Reader) ([]byte, error) {
	k := make([]byte, SessionKeyLen)
	if _, err := io.ReadFull(rng, k); err != nil {
		return nil, fmt.Errorf("ticket: session key: %w", err)
	}
	return k, nil
}

func (t *Ticket) walk(c *codec.Walker) {
	c.Str(&t.RC)
	c.Int64(&t.IssuedAt)
	bs := codec.List64(c, &t.Bindings, 1<<16, 8+4)
	for i := range bs {
		c.Uint64((*uint64)(&bs[i].AID))
		c.Str((*string)(&bs[i].Attribute))
		if c.Reading() {
			bs[i].Identity = t.RC
		}
	}
	c.Blob(&t.SessionKey)
}

// A format here is a value with a walk; encode and decode run it each
// way, and decode is where the codec's errors take the package's name.
type format interface{ walk(*codec.Walker) }

func encode(f format) []byte {
	var c codec.Walker
	f.walk(&c)
	return c.Bytes()
}

func decode(b []byte, f format) error {
	c := codec.Reader(b)
	f.walk(&c)
	if err := c.Done(); err != nil {
		return fmt.Errorf("ticket: %w", err)
	}
	return nil
}

func decodeTicket(b []byte) (*Ticket, error) {
	t := &Ticket{}
	if err := decode(b, t); err != nil {
		return nil, err
	}
	return t, nil
}

// AttributeByAID resolves an AID carried by this ticket.
func (t *Ticket) AttributeByAID(aid attr.ID) (attr.Attribute, bool) {
	for _, b := range t.Bindings {
		if b.AID == aid {
			return b.Attribute, true
		}
	}
	return "", false
}

const ticketAAD = "mwskit/ticket/v1"

// Seal encrypts the ticket under the MWS–PKG shared key.
func (t *Ticket) Seal(mwsPkgKey []byte) ([]byte, error) {
	if t.RC == "" {
		return nil, errors.New("ticket: empty RC identity")
	}
	if len(t.SessionKey) != SessionKeyLen {
		return nil, fmt.Errorf("ticket: session key must be %d bytes", SessionKeyLen)
	}
	return sealScheme.Seal(mwsPkgKey, encode(t), []byte(ticketAAD))
}

// OpenTicket authenticates and decrypts a sealed ticket at the PKG.
func OpenTicket(mwsPkgKey, blob []byte) (*Ticket, error) {
	plain, err := sealScheme.Open(mwsPkgKey, blob, []byte(ticketAAD))
	if err != nil {
		return nil, fmt.Errorf("ticket: %w", err)
	}
	return decodeTicket(plain)
}

// Token is what the Gatekeeper returns to the RC: the session key it will
// share with the PKG plus the opaque sealed ticket it must forward.
type Token struct {
	SessionKey []byte
	TicketBlob []byte
}

const tokenAAD = "mwskit/token/v1"

// SealToken wraps a token to the RC's public key: an RSA-OAEP block
// carrying a fresh content key, followed by an AEAD ciphertext of the
// token body.
func SealToken(rng io.Reader, pub *rsa.PublicKey, tok *Token) ([]byte, error) {
	if len(tok.SessionKey) != SessionKeyLen {
		return nil, fmt.Errorf("ticket: token session key must be %d bytes", SessionKeyLen)
	}
	contentKey := make([]byte, 32)
	if _, err := io.ReadFull(rng, contentKey); err != nil {
		return nil, err
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rng, pub, contentKey, []byte(tokenAAD))
	if err != nil {
		return nil, fmt.Errorf("ticket: token wrap: %w", err)
	}
	body, err := sealScheme.Seal(contentKey, encode(&pair{tok.SessionKey, tok.TicketBlob}), []byte(tokenAAD))
	if err != nil {
		return nil, err
	}
	return encode(&pair{wrapped, body}), nil
}

// pair is the two length-prefixed fields of a token body (session key,
// ticket) and of its wrapping (RSA block, sealed body).
type pair struct{ a, b []byte }

func (p *pair) walk(c *codec.Walker) {
	c.Blob(&p.a)
	c.Blob(&p.b)
}

// OpenToken unwraps a token with the RC's private key.
func OpenToken(priv *rsa.PrivateKey, blob []byte) (*Token, error) {
	var outer pair // RSA block, sealed body
	if err := decode(blob, &outer); err != nil {
		return nil, err
	}
	contentKey, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, priv, outer.a, []byte(tokenAAD))
	if err != nil {
		return nil, fmt.Errorf("ticket: token unwrap: %w", err)
	}
	plain, err := sealScheme.Open(contentKey, outer.b, []byte(tokenAAD))
	if err != nil {
		return nil, fmt.Errorf("ticket: token body: %w", err)
	}
	var body pair // session key, ticket
	if err := decode(plain, &body); err != nil {
		return nil, err
	}
	return &Token{SessionKey: body.a, TicketBlob: body.b}, nil
}

// Authenticator proves to the PKG that the bearer holds the session key
// *now*: E(SecK_RC-PKG, ID ‖ T) with a freshness window checked at open.
type Authenticator struct {
	RC        string
	Timestamp time.Time
}

const authAAD = "mwskit/authenticator/v1"

// walk takes the timestamp as Unix seconds.
func (a *Authenticator) walk(c *codec.Walker) {
	c.Str(&a.RC)
	ts := a.Timestamp.Unix()
	c.Int64(&ts)
	if c.Reading() {
		a.Timestamp = time.Unix(ts, 0)
	}
}

// SealAuthenticator encrypts the authenticator under the session key.
func SealAuthenticator(sessionKey []byte, a *Authenticator) ([]byte, error) {
	return sealScheme.Seal(sessionKey, encode(a), []byte(authAAD))
}

// ErrStale is returned when an authenticator's timestamp falls outside
// the freshness window (replay or severe clock skew).
var ErrStale = errors.New("ticket: authenticator outside freshness window")

// OpenAuthenticator decrypts and freshness-checks an authenticator: the
// embedded timestamp must lie within ±window of now.
func OpenAuthenticator(sessionKey, blob []byte, now time.Time, window time.Duration) (*Authenticator, error) {
	plain, err := sealScheme.Open(sessionKey, blob, []byte(authAAD))
	if err != nil {
		return nil, fmt.Errorf("ticket: authenticator: %w", err)
	}
	a := &Authenticator{}
	if err := decode(plain, a); err != nil {
		return nil, err
	}
	if d := now.Sub(a.Timestamp); d > window || d < -window {
		return nil, ErrStale
	}
	return a, nil
}

// What crosses the RC–PKG session — the paper's "secure channel" — is
// sealed under the ticket's session key, one AAD per role so an extracted
// key never opens as a trapdoor payload or the reverse.
const (
	sealedKeyAAD = "mwskit/keyserver/extract/v1"
	keywordAAD   = "mwskit/keyserver/trapdoor/v1"
)

// SealExtractedKey seals one marshalled private key sI at the PKG;
// OpenExtractedKey is the RC's inverse.
func SealExtractedKey(sessionKey, key []byte) ([]byte, error) {
	return sealScheme.Seal(sessionKey, key, []byte(sealedKeyAAD))
}

func OpenExtractedKey(sessionKey, sealed []byte) ([]byte, error) {
	key, err := sealScheme.Open(sessionKey, sealed, []byte(sealedKeyAAD))
	if err != nil {
		return nil, fmt.Errorf("ticket: sealed key: %w", err)
	}
	return key, nil
}

// SealTrapdoorPayload and OpenTrapdoorPayload seal and open either
// payload of the trapdoor exchange: the RC seals the keyword and opens the
// trapdoor, the PKG the reverse.
func SealTrapdoorPayload(sessionKey, plain []byte) ([]byte, error) {
	return sealScheme.Seal(sessionKey, plain, []byte(keywordAAD))
}

func OpenTrapdoorPayload(sessionKey, sealed []byte) ([]byte, error) {
	return sealScheme.Open(sessionKey, sealed, []byte(keywordAAD))
}
