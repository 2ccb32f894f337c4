package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"mwskit/internal/codec"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	f := Frame{Type: TDeposit, Payload: []byte("hello frames")}
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != f.Type || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: TPing}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TPing || len(got.Payload) != 0 {
		t.Fatalf("got %+v", got)
	}
}

func TestFrameRejectsBadMagic(t *testing.T) {
	raw := []byte{'X', 'X', 'X', 'X', 1, 0, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	raw := append([]byte{}, Magic[:]...)
	raw = append(raw, byte(TDeposit), 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("oversized frame header accepted")
	}
	if err := WriteFrame(io.Discard, Frame{Payload: make([]byte, MaxFrameLen+1)}); err == nil {
		t.Fatal("oversized frame written")
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: TDeposit, Payload: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 1; cut < len(raw); cut++ {
		if _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated frame of %d bytes accepted", cut)
		}
	}
}

func TestTypeStrings(t *testing.T) {
	for _, typ := range []Type{TError, TDeposit, TDepositResp, TRetrieve, TRetrieveResp, TExtract, TExtractResp, TParams, TParamsResp, TPing, TPong} {
		if s := typ.String(); s == "" || s[0] == 'T' && len(s) < 3 {
			t.Errorf("Type(%d).String() = %q", typ, s)
		}
	}
	if Type(200).String() != "Type(200)" {
		t.Error("unknown type string wrong")
	}
}

func TestDepositRequestRoundTrip(t *testing.T) {
	r := &DepositRequest{
		DeviceID:   "meter-7",
		Timestamp:  1278000000,
		Attribute:  "ELECTRIC-APT-SV-CA",
		Nonce:      bytes.Repeat([]byte{9}, 16),
		U:          []byte("point-bytes"),
		Ciphertext: []byte("ct"),
		Scheme:     "DES-CBC-HMAC",
		MAC:        bytes.Repeat([]byte{1}, 32),
	}
	back, err := UnmarshalDepositRequest(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.DeviceID != r.DeviceID || back.Timestamp != r.Timestamp ||
		back.Attribute != r.Attribute || !bytes.Equal(back.Nonce, r.Nonce) ||
		!bytes.Equal(back.U, r.U) || !bytes.Equal(back.Ciphertext, r.Ciphertext) ||
		back.Scheme != r.Scheme || !bytes.Equal(back.MAC, r.MAC) {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestMACPartsCoverEverything(t *testing.T) {
	a := &DepositRequest{DeviceID: "d", Timestamp: 1, Attribute: "A", Nonce: []byte("n"),
		U: []byte("u"), Ciphertext: []byte("c"), Scheme: "s"}
	base := flatten(a.MACParts())
	mutations := []func(*DepositRequest){
		func(r *DepositRequest) { r.DeviceID = "x" },
		func(r *DepositRequest) { r.Timestamp = 2 },
		func(r *DepositRequest) { r.Attribute = "B" },
		func(r *DepositRequest) { r.Nonce = []byte("m") },
		func(r *DepositRequest) { r.U = []byte("v") },
		func(r *DepositRequest) { r.Ciphertext = []byte("d") },
		func(r *DepositRequest) { r.Scheme = "t" },
	}
	for i, mut := range mutations {
		b := *a
		mut(&b)
		if bytes.Equal(base, flatten(b.MACParts())) {
			t.Errorf("mutation %d not covered by MACParts", i)
		}
	}
}

func flatten(parts [][]byte) []byte {
	var e codec.Encoder
	for _, p := range parts {
		e.Blob(p)
	}
	return e.Bytes()
}

func TestRetrieveRoundTrips(t *testing.T) {
	req := &RetrieveRequest{RC: "c-services", AuthBlob: []byte("auth"), FromSeq: 42, Limit: 7}
	backReq, err := UnmarshalRetrieveRequest(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if backReq.RC != req.RC || !bytes.Equal(backReq.AuthBlob, req.AuthBlob) || backReq.FromSeq != 42 || backReq.Limit != 7 {
		t.Fatal("request field mismatch")
	}

	resp := &RetrieveResponse{
		TokenBlob: []byte("token"),
		Items: []MessageItem{
			{Seq: 1, AID: 3, Nonce: []byte("n1"), U: []byte("u1"), Ciphertext: []byte("c1"), Scheme: "AES-128-GCM", DeviceID: "m1", Timestamp: 10},
			{Seq: 2, AID: 4, Nonce: []byte("n2"), U: []byte("u2"), Ciphertext: []byte("c2"), Scheme: "DES-CBC-HMAC", DeviceID: "m2", Timestamp: 20},
		},
	}
	backResp, err := UnmarshalRetrieveResponse(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(backResp.TokenBlob, resp.TokenBlob) || len(backResp.Items) != 2 {
		t.Fatal("response mismatch")
	}
	for i := range resp.Items {
		a, b := resp.Items[i], backResp.Items[i]
		if a.Seq != b.Seq || a.AID != b.AID || !bytes.Equal(a.Nonce, b.Nonce) ||
			!bytes.Equal(a.U, b.U) || !bytes.Equal(a.Ciphertext, b.Ciphertext) ||
			a.Scheme != b.Scheme || a.DeviceID != b.DeviceID || a.Timestamp != b.Timestamp {
			t.Fatalf("item %d mismatch", i)
		}
	}
}

func TestExtractRoundTrips(t *testing.T) {
	req := &ExtractRequest{
		RC:            "rc",
		TicketBlob:    []byte("ticket"),
		Authenticator: []byte("auth"),
		Items:         []ExtractItem{{AID: 1, Nonce: []byte("n1")}, {AID: 2, Nonce: []byte("n2")}},
	}
	back, err := UnmarshalExtractRequest(req.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.RC != req.RC || len(back.Items) != 2 || back.Items[1].AID != 2 {
		t.Fatalf("extract request mismatch: %+v", back)
	}
	resp := &ExtractResponse{SealedKeys: [][]byte{[]byte("k1"), []byte("k2"), nil}}
	backResp, err := UnmarshalExtractResponse(resp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(backResp.SealedKeys) != 3 || !bytes.Equal(backResp.SealedKeys[0], []byte("k1")) {
		t.Fatal("extract response mismatch")
	}
}

func TestParamsAndErrorRoundTrips(t *testing.T) {
	pr := &ParamsResponse{Preset: "bf80", PPub: []byte("ppub-bytes")}
	back, err := UnmarshalParamsResponse(pr.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.Preset != "bf80" || !bytes.Equal(back.PPub, pr.PPub) {
		t.Fatal("params mismatch")
	}
	em := &ErrorMsg{Code: CodeAuth, Message: "authentication failed"}
	backE, err := UnmarshalErrorMsg(em.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if backE.Code != CodeAuth || backE.Message != em.Message {
		t.Fatal("error mismatch")
	}
	if em.Error() == "" {
		t.Fatal("empty Error()")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	garbage := [][]byte{nil, {1}, {0, 0, 0, 200}, bytes.Repeat([]byte{0xFF}, 10)}
	for _, g := range garbage {
		if _, err := UnmarshalDepositRequest(g); err == nil {
			t.Errorf("deposit decoded garbage %v", g)
		}
		if _, err := UnmarshalRetrieveResponse(g); err == nil {
			t.Errorf("retrieve resp decoded garbage %v", g)
		}
		if _, err := UnmarshalExtractRequest(g); err == nil {
			t.Errorf("extract decoded garbage %v", g)
		}
	}
}

func TestMessageAADBinding(t *testing.T) {
	base := MessageAAD("dev", 100, []byte("nonce"), []byte("u"))
	variants := [][]byte{
		MessageAAD("dev2", 100, []byte("nonce"), []byte("u")),
		MessageAAD("dev", 101, []byte("nonce"), []byte("u")),
		MessageAAD("dev", 100, []byte("nonce2"), []byte("u")),
		MessageAAD("dev", 100, []byte("nonce"), []byte("u2")),
	}
	for i, v := range variants {
		if bytes.Equal(base, v) {
			t.Errorf("AAD variant %d not bound", i)
		}
	}
	if !bytes.Equal(base, MessageAAD("dev", 100, []byte("nonce"), []byte("u"))) {
		t.Error("AAD not deterministic")
	}
}

// --- server/client integration ---

func TestServerClientRoundTrip(t *testing.T) {
	echo := HandlerFunc(func(ctx context.Context, f Frame) Frame {
		if f.Type == TPing {
			return Frame{Type: TPong, Payload: f.Payload}
		}
		return ErrorFrame(CodeBadRequest, "only ping")
	})
	srv := NewServer(echo, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Multiple sequential requests on one connection.
	for i := 0; i < 5; i++ {
		resp, err := c.Do(Frame{Type: TPing, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != TPong || !bytes.Equal(resp.Payload, []byte{byte(i)}) {
			t.Fatalf("round %d: %+v", i, resp)
		}
	}

	// Error responses surface as *ErrorMsg.
	_, err = c.Do(Frame{Type: TDeposit})
	var em *ErrorMsg
	if !errors.As(err, &em) || em.Code != CodeBadRequest {
		t.Fatalf("err = %v, want *ErrorMsg{CodeBadRequest}", err)
	}
}

func TestServerSurvivesHandlerPanic(t *testing.T) {
	boom := HandlerFunc(func(ctx context.Context, f Frame) Frame { panic("handler bug") })
	srv := NewServer(boom, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Do(Frame{Type: TPing})
	var em *ErrorMsg
	if !errors.As(err, &em) || em.Code != CodeInternal {
		t.Fatalf("err = %v, want internal ErrorMsg", err)
	}
	// Server is still alive for a fresh connection.
	c2, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Do(Frame{Type: TPing}); err == nil {
		t.Fatal("expected error response again")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv := NewServer(HandlerFunc(func(ctx context.Context, f Frame) Frame { return Frame{Type: TPong} }), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(Frame{Type: TPing}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(Frame{Type: TPing}); err == nil {
		t.Fatal("Do succeeded against a closed server")
	}
	// Double close is fine.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := NewServer(HandlerFunc(func(ctx context.Context, f Frame) Frame {
		return Frame{Type: TPong, Payload: f.Payload}
	}), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			c, err := Dial(addr.String())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for i := 0; i < 20; i++ {
				want := []byte{byte(g), byte(i)}
				resp, err := c.Do(Frame{Type: TPing, Payload: want})
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(resp.Payload, want) {
					done <- errors.New("payload mismatch")
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
