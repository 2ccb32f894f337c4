// Package mws is a mwslint fixture for the plainflow analyzer: its
// terminal path segment puts it in plainflow's report scope, and the
// sibling symenc/storage/wire fixture packages play the roles of the real
// crypto, storage, and framing layers.
package mws

import (
	"io"

	"mwskit/internal/lint/testdata/src/plainflow/storage"
	"mwskit/internal/lint/testdata/src/plainflow/symenc"
	"mwskit/internal/lint/testdata/src/plainflow/wire"
)

// StoreDecrypted persists a freshly decrypted payload: the direct
// violation.
func StoreDecrypted(key, blob []byte) error {
	pt, err := symenc.Open(key, blob, nil)
	if err != nil {
		return err
	}
	return storage.Put(pt) // want "decrypted plaintext \\(symenc.Open output\\) flows into a storage write"
}

// StoreSealed re-encrypts before persisting: the sanctioned shape. The
// Seal call sanitizes, so nothing is reported.
func StoreSealed(key, blob []byte) error {
	pt, err := symenc.Open(key, blob, nil)
	if err != nil {
		return err
	}
	ct, err := symenc.Seal(key, pt, nil)
	if err != nil {
		return err
	}
	return storage.Put(ct)
}

// StoreRaw persists bytes that were never decrypted: clean.
func StoreRaw(blob []byte) error {
	return storage.Put(blob)
}

// decrypt, relay, Persist, persist: the taint crosses three function
// boundaries between the Open and the write.
func decrypt(key, blob []byte) []byte {
	pt, _ := symenc.Open(key, blob, nil)
	return pt
}

func relay(key, blob []byte) []byte {
	return decrypt(key, blob)
}

// Persist is the interprocedural violation's entry point.
func Persist(key, blob []byte) error {
	return persist(relay(key, blob))
}

func persist(rec []byte) error {
	return storage.Put(rec) // want "decrypted plaintext \\(symenc.Open output\\) flows into a storage write"
}

// SealAndJournal leaks the pre-encryption plaintext after sealing it:
// the ciphertext is clean, but the input buffer is not.
func SealAndJournal(key, msg []byte) ([]byte, error) {
	ct, err := symenc.Seal(key, msg, nil)
	if err != nil {
		return nil, err
	}
	storage.Audit(msg) // want "pre-encryption plaintext \\(symenc.Seal input\\) flows into a storage write"
	return ct, nil
}

// Frame places decrypted bytes into a wire message literal.
func Frame(key, blob []byte) wire.Record {
	pt, _ := symenc.Open(key, blob, nil)
	return wire.Record{Payload: pt} // want "decrypted plaintext \\(symenc.Open output\\) is placed into a wire message"
}

// Encode hands decrypted bytes to the wire layer.
func Encode(key, blob []byte) []byte {
	pt, _ := symenc.Open(key, blob, nil)
	return wire.Encode(pt) // want "decrypted plaintext \\(symenc.Open output\\) flows into the wire layer"
}

// Dump writes decrypted bytes to an arbitrary io.Writer.
func Dump(w io.Writer, key, blob []byte) error {
	pt, _ := symenc.Open(key, blob, nil)
	_, err := w.Write(pt) // want "decrypted plaintext \\(symenc.Open output\\) is written to an io.Writer"
	return err
}

// FrameCiphertext frames never-decrypted bytes: clean.
func FrameCiphertext(blob []byte) wire.Record {
	return wire.Record{Payload: blob}
}

// parseError quotes the input that failed to parse.
type parseError []byte

func (e parseError) Error() string { return string(e) }

func parse(b []byte) (int, error) {
	return 0, parseError(b)
}

// FrameParseError frames the text of an err that := merely reassigned
// from a call on decrypted bytes. plainflow replays under the sticky
// policy, where such an identifier keeps what it held, so this stays
// silent; a flow-sensitive replay would strong-update err to parse's
// argument and report the literal — the shape of the "malformed
// keyword" reply in keyserver.Trapdoor.
func FrameParseError(key, blob []byte) wire.Record {
	pt, err := symenc.Open(key, blob, nil)
	if err != nil {
		return wire.Record{}
	}
	n, err := parse(pt)
	if err != nil {
		return wire.Record{Payload: []byte(err.Error())}
	}
	return wire.Record{Payload: make([]byte, n)}
}
