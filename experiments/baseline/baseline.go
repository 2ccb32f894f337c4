// Package baseline implements the certificate-based public-key system the
// paper argues against (§I, citing [7][8]): every receiving client owns an
// X.509 certificate, and a depositing client that wants to reach a class
// of recipients must (a) know their identities, (b) obtain and verify each
// certificate, and (c) encrypt the message key once per recipient.
//
// The point of the comparison (experiment E9) is structural, not raw
// speed: under the certificate model the sender's cost grows linearly
// with the recipient set and the sender must track membership changes,
// whereas the IBE model is O(1) in recipients and membership is enforced
// server-side. This package makes that measurable.
package baseline

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"time"

	"mwskit/internal/symenc"
	"mwskit/internal/wire"
)

// CA is a toy certificate authority issuing recipient certificates.
type CA struct {
	key  *rsa.PrivateKey
	cert *x509.Certificate
	der  []byte

	mu     sync.Mutex
	serial int64
}

// NewCA creates a self-signed CA with keys of the given size.
func NewCA(bits int, rng io.Reader) (*CA, error) {
	key, err := rsa.GenerateKey(rng, bits)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "mwskit baseline CA"},
		NotBefore:             time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:              time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC),
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rng, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{key: key, cert: cert, der: der, serial: 1}, nil
}

// Recipient is a certificate-holding receiving client.
type Recipient struct {
	Name    string
	Key     *rsa.PrivateKey
	CertDER []byte
}

// Issue creates a recipient with a CA-signed certificate.
func (ca *CA) Issue(name string, bits int, rng io.Reader) (*Recipient, error) {
	key, err := rsa.GenerateKey(rng, bits)
	if err != nil {
		return nil, err
	}
	ca.mu.Lock()
	ca.serial++
	serial := ca.serial
	ca.mu.Unlock()
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(serial),
		Subject:      pkix.Name{CommonName: name},
		NotBefore:    time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:     time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC),
		KeyUsage:     x509.KeyUsageKeyEncipherment,
	}
	der, err := x509.CreateCertificate(rng, tmpl, ca.cert, &key.PublicKey, ca.key)
	if err != nil {
		return nil, err
	}
	return &Recipient{Name: name, Key: key, CertDER: der}, nil
}

// Pool verifies certificates against the CA.
func (ca *CA) Pool() *x509.CertPool {
	pool := x509.NewCertPool()
	pool.AddCert(ca.cert)
	return pool
}

// Envelope is a certificate-model multi-recipient ciphertext: one
// symmetric body plus one RSA-wrapped key per recipient.
type Envelope struct {
	Body        []byte
	WrappedKeys map[string][]byte // recipient name → RSA-OAEP(content key)
}

// Sender is a depositing client under the certificate model. Unlike the
// IBE device, it must hold (and keep fresh) the full recipient list.
type Sender struct {
	scheme symenc.Scheme
	pool   *x509.CertPool
	// verified caches parsed-and-verified recipient public keys; cache
	// misses model the cost of certificate handling on small devices.
	mu       sync.Mutex
	verified map[string]*rsa.PublicKey
}

// NewSender builds a sender trusting the given CA pool.
func NewSender(scheme symenc.Scheme, pool *x509.CertPool) *Sender {
	return &Sender{scheme: scheme, pool: pool, verified: make(map[string]*rsa.PublicKey)}
}

// verify parses and chain-verifies a recipient certificate (the per-
// recipient work the paper says low-power clients cannot afford).
func (s *Sender) verify(name string, certDER []byte) (*rsa.PublicKey, error) {
	s.mu.Lock()
	if pub, ok := s.verified[name]; ok {
		s.mu.Unlock()
		return pub, nil
	}
	s.mu.Unlock()
	cert, err := x509.ParseCertificate(certDER)
	if err != nil {
		return nil, fmt.Errorf("baseline: parse cert: %w", err)
	}
	if _, err := cert.Verify(x509.VerifyOptions{
		Roots:     s.pool,
		KeyUsages: []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	}); err != nil {
		return nil, fmt.Errorf("baseline: verify cert: %w", err)
	}
	pub, ok := cert.PublicKey.(*rsa.PublicKey)
	if !ok {
		return nil, errors.New("baseline: certificate is not RSA")
	}
	s.mu.Lock()
	s.verified[name] = pub
	s.mu.Unlock()
	return pub, nil
}

// InvalidateCache clears the verified-certificate cache, modelling a
// membership change the sender must react to (the structural cost IBE
// avoids entirely).
func (s *Sender) InvalidateCache() {
	s.mu.Lock()
	s.verified = make(map[string]*rsa.PublicKey)
	s.mu.Unlock()
}

// Encrypt seals a message for every recipient: one body, N key wraps,
// and N certificate verifications on a cold cache.
func (s *Sender) Encrypt(msg []byte, recipients []*Recipient, rng io.Reader) (*Envelope, error) {
	if len(recipients) == 0 {
		return nil, errors.New("baseline: no recipients — the sender MUST know its recipients")
	}
	contentKey := make([]byte, s.scheme.KeyLen())
	if _, err := io.ReadFull(rng, contentKey); err != nil {
		return nil, err
	}
	aad := wire.MessageAAD("baseline", 0, nil, nil)
	body, err := s.scheme.Seal(contentKey, msg, aad)
	if err != nil {
		return nil, err
	}
	env := &Envelope{Body: body, WrappedKeys: make(map[string][]byte, len(recipients))}
	for _, r := range recipients {
		pub, err := s.verify(r.Name, r.CertDER)
		if err != nil {
			return nil, err
		}
		wrapped, err := rsa.EncryptOAEP(sha256.New(), rng, pub, contentKey, nil)
		if err != nil {
			return nil, err
		}
		env.WrappedKeys[r.Name] = wrapped
	}
	return env, nil
}

// Decrypt opens an envelope as the named recipient.
func (r *Recipient) Decrypt(scheme symenc.Scheme, env *Envelope) ([]byte, error) {
	wrapped, ok := env.WrappedKeys[r.Name]
	if !ok {
		return nil, fmt.Errorf("baseline: no wrapped key for %q — sender did not know this recipient", r.Name)
	}
	contentKey, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, r.Key, wrapped, nil)
	if err != nil {
		return nil, err
	}
	aad := wire.MessageAAD("baseline", 0, nil, nil)
	return scheme.Open(contentKey, env.Body, aad)
}

// CiphertextSize reports the total envelope size — grows linearly with
// the recipient count, unlike the IBE ciphertext.
func (e *Envelope) CiphertextSize() int {
	n := len(e.Body)
	for _, w := range e.WrappedKeys {
		n += len(w)
	}
	return n
}
