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

func (t *Ticket) encode() ([]byte, error) {
	if t.RC == "" {
		return nil, errors.New("ticket: empty RC identity")
	}
	if len(t.SessionKey) != SessionKeyLen {
		return nil, fmt.Errorf("ticket: session key must be %d bytes", SessionKeyLen)
	}
	var e codec.Encoder
	e.Str(t.RC)
	e.Int64(t.IssuedAt)
	e.Uint64(uint64(len(t.Bindings)))
	for _, b := range t.Bindings {
		e.Uint64(uint64(b.AID))
		e.Str(string(b.Attribute))
	}
	e.Blob(t.SessionKey)
	return e.Bytes(), nil
}

// decoded reports a plaintext that failed to decode under the package's
// name; it is where the codec's truncation and trailing-bytes errors are
// wrapped.
func decoded(err error) error {
	if err != nil {
		return fmt.Errorf("ticket: %w", err)
	}
	return nil
}

func decodeTicket(b []byte) (*Ticket, error) {
	t := &Ticket{}
	if err := decoded(t.decode(codec.NewDecoder(b))); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Ticket) decode(d *codec.Decoder) (err error) {
	if t.RC, err = d.Str(); err != nil {
		return err
	}
	if t.IssuedAt, err = d.Int64(); err != nil {
		return err
	}
	n, err := d.Uint64()
	if err != nil {
		return err
	}
	if n > 1<<16 {
		return errors.New("implausible binding count")
	}
	t.Bindings = make([]attr.Binding, n)
	for i := range t.Bindings {
		aid, err := d.Uint64()
		if err != nil {
			return err
		}
		a, err := d.Str()
		if err != nil {
			return err
		}
		t.Bindings[i] = attr.Binding{Identity: t.RC, AID: attr.ID(aid), Attribute: attr.Attribute(a)}
	}
	if t.SessionKey, err = d.Blob(); err != nil {
		return err
	}
	return d.Done()
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
	plain, err := t.encode()
	if err != nil {
		return nil, err
	}
	return sealScheme.Seal(mwsPkgKey, plain, []byte(ticketAAD))
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
	body, err := sealScheme.Seal(contentKey, blobPair(tok.SessionKey, tok.TicketBlob), []byte(tokenAAD))
	if err != nil {
		return nil, err
	}
	return blobPair(wrapped, body), nil
}

// blobPair / openBlobPair carry the two length-prefixed fields of a token
// body (session key, ticket) and of its wrapping (RSA block, sealed body).
func blobPair(a, b []byte) []byte {
	var e codec.Encoder
	e.Blob(a)
	e.Blob(b)
	return e.Bytes()
}

func openBlobPair(raw []byte) (a, b []byte, err error) {
	d := codec.NewDecoder(raw)
	if a, err = d.Blob(); err != nil {
		return nil, nil, decoded(err)
	}
	if b, err = d.Blob(); err != nil {
		return nil, nil, decoded(err)
	}
	return a, b, decoded(d.Done())
}

// OpenToken unwraps a token with the RC's private key.
func OpenToken(priv *rsa.PrivateKey, blob []byte) (*Token, error) {
	wrapped, body, err := openBlobPair(blob)
	if err != nil {
		return nil, err
	}
	contentKey, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, priv, wrapped, []byte(tokenAAD))
	if err != nil {
		return nil, fmt.Errorf("ticket: token unwrap: %w", err)
	}
	plain, err := sealScheme.Open(contentKey, body, []byte(tokenAAD))
	if err != nil {
		return nil, fmt.Errorf("ticket: token body: %w", err)
	}
	tok := &Token{}
	tok.SessionKey, tok.TicketBlob, err = openBlobPair(plain)
	return tok, err
}

// Authenticator proves to the PKG that the bearer holds the session key
// *now*: E(SecK_RC-PKG, ID ‖ T) with a freshness window checked at open.
type Authenticator struct {
	RC        string
	Timestamp time.Time
}

const authAAD = "mwskit/authenticator/v1"

// SealAuthenticator encrypts the authenticator under the session key.
func SealAuthenticator(sessionKey []byte, a *Authenticator) ([]byte, error) {
	var e codec.Encoder
	e.Str(a.RC)
	e.Int64(a.Timestamp.Unix())
	return sealScheme.Seal(sessionKey, e.Bytes(), []byte(authAAD))
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
	d := codec.NewDecoder(plain)
	a := &Authenticator{}
	if a.RC, err = d.Str(); err != nil {
		return nil, decoded(err)
	}
	ts, err := d.Int64()
	if err == nil {
		err = d.Done()
	}
	if err != nil {
		return nil, decoded(err)
	}
	a.Timestamp = time.Unix(ts, 0)
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
