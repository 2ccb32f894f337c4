package papercipher

import (
	"bytes"
	"testing"
)

func TestPKCS7(t *testing.T) {
	for n := 0; n <= 17; n++ {
		data := bytes.Repeat([]byte{7}, n)
		padded := pkcs7Pad(data, 8)
		if len(padded)%8 != 0 {
			t.Fatalf("pad(%d) produced non-multiple length %d", n, len(padded))
		}
		back, ok := pkcs7Unpad(padded, 8)
		if !ok || !bytes.Equal(back, data) {
			t.Fatalf("unpad(pad(%d)) failed", n)
		}
	}
	if _, ok := pkcs7Unpad([]byte{1, 2, 3, 4, 5, 6, 7, 9}, 8); ok {
		t.Error("bad pad byte accepted")
	}
	if _, ok := pkcs7Unpad([]byte{1, 2, 3}, 8); ok {
		t.Error("non-block-multiple accepted")
	}
	if _, ok := pkcs7Unpad([]byte{0, 0, 0, 0, 0, 0, 0, 0}, 8); ok {
		t.Error("zero pad accepted")
	}
}
