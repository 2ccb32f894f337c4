package ticket

import (
	"bytes"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mwskit/internal/attr"
)

// TestPlainGolden holds the pre-seal plaintexts of a fixed Ticket,
// Authenticator and Token to testdata/plain.golden, written by the commit
// before the package's own binEnc/binDec gave way to internal/codec (the
// ticket and authenticator plaintexts recovered by opening what that
// commit sealed, the token body from its encoder). The file is never
// regenerated: each sealed object must open to exactly those bytes, and
// those bytes must decode to the object.
func TestPlainGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/plain.golden")
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string][]byte{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, hexed, _ := strings.Cut(line, " ")
		if golden[name], err = hex.DecodeString(hexed); err != nil {
			t.Fatalf("bad golden line %q: %v", line, err)
		}
	}
	if len(golden) != 3 {
		t.Fatalf("golden holds %d plaintexts, want 3", len(golden))
	}
	check := func(name string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, golden[name]) {
			t.Errorf("%s plaintext is\n %x\nthe golden is\n %x", name, got, golden[name])
		}
	}

	session := bytes.Repeat([]byte{0xA5}, SessionKeyLen)
	tk := &Ticket{
		RC: "c-services",
		Bindings: []attr.Binding{
			{Identity: "c-services", AID: 7, Attribute: "ELECTRIC-APTCOMPLEX-SV-CA"},
			{Identity: "c-services", AID: 0x0102030405060708, Attribute: "WATER-APTCOMPLEX-SV-CA"},
		},
		SessionKey: session,
		IssuedAt:   1278000000,
	}
	key := bytes.Repeat([]byte{0x11}, 32)
	blob, err := tk.Seal(key)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sealScheme.Open(key, blob, []byte(ticketAAD))
	if err != nil {
		t.Fatal(err)
	}
	check("ticket", plain)
	if back, err := decodeTicket(golden["ticket"]); err != nil || !reflect.DeepEqual(back, tk) {
		t.Errorf("ticket golden decodes to %+v, %v", back, err)
	}

	auth := &Authenticator{RC: "c-services", Timestamp: time.Unix(1278000123, 0)}
	if blob, err = SealAuthenticator(session, auth); err != nil {
		t.Fatal(err)
	}
	if plain, err = sealScheme.Open(session, blob, []byte(authAAD)); err != nil {
		t.Fatal(err)
	}
	check("authenticator", plain)
	if back, err := OpenAuthenticator(session, blob, auth.Timestamp, time.Minute); err != nil || !back.Timestamp.Equal(auth.Timestamp) || back.RC != auth.RC {
		t.Errorf("authenticator opens to %+v, %v", back, err)
	}

	// The token's outer layout — two length-prefixed fields, the RSA block
	// and the sealed body — is parsed here by hand, so it is pinned too.
	tok := &Token{SessionKey: session, TicketBlob: []byte("opaque sealed ticket")}
	priv := testRSA(t)
	if blob, err = SealToken(rand.Reader, &priv.PublicKey, tok); err != nil {
		t.Fatal(err)
	}
	n := binary.BigEndian.Uint32(blob)
	wrapped, rest := blob[4:4+n], blob[4+n:]
	if m := binary.BigEndian.Uint32(rest); int(m) != len(rest)-4 {
		t.Fatalf("token body length field %d, %d bytes follow", m, len(rest)-4)
	}
	contentKey, err := rsa.DecryptOAEP(sha256.New(), nil, priv, wrapped, []byte(tokenAAD))
	if err != nil {
		t.Fatal(err)
	}
	if plain, err = sealScheme.Open(contentKey, rest[4:], []byte(tokenAAD)); err != nil {
		t.Fatal(err)
	}
	check("token", plain)
	if back, err := OpenToken(priv, blob); err != nil || !reflect.DeepEqual(back, tok) {
		t.Errorf("token opens to %+v, %v", back, err)
	}
}
