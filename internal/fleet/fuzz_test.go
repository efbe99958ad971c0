package fleet

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame pins the wire decoder against arbitrary bytes: it
// must never panic, every accepted frame must survive an
// encode→decode round trip byte-identically (the protocol has one
// canonical encoding), and re-validation of an accepted frame must
// pass (decode implies valid). Seeds cover every frame type the
// protocol speaks plus the malformed shapes a torn TCP stream or a
// version-skewed peer could deliver.
func FuzzDecodeFrame(f *testing.F) {
	seeds := []string{
		`{"k":"lease-request","w":"worker-1"}`,
		`{"k":"lease-request","w":"worker-1","l":7,"res":[` +
			`{"q":96,"c":true},` +
			`{"q":97,"a":3,"r":"budget-exhausted","e":"webworld: shop9.de: temporarily unavailable"}]}`,
		`{"k":"lease-grant","l":7,"f":96,"n":2,"ttl":10000,"i":[` +
			`{"q":96,"u":"https://news3.com/a?utm=1","d":"news3.com","t":12},` +
			`{"q":97,"u":"https://shop9.de/b","d":"shop9.de","t":12}]}`,
		`{"k":"idle","rty":250}`,
		`{"k":"drained"}`,
		`{"k":"heartbeat","w":"worker-1","l":7}`,
		`{"k":"lease-request","w":"eu.4321","l":3,"res":[{"q":0,"c":true}],"tp":"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"}`,
		`{"k":"ack"}`,
		`{"k":"error","e":"unknown lease 7 for worker worker-1"}`,
		// Malformed: unknown type, unknown field, non-contiguous range,
		// item/N mismatch, results out of order or without their lease,
		// a capacity hint and a completion frame (neither is part of
		// the protocol), torn tails, garbage.
		`{"k":"gossip"}`,
		`{"k":"heartbeat","w":"w","l":7,"extra":1}`,
		`{"k":"lease-request","w":"eu.4321","cap":64}`,
		`{"k":"completion","w":"w","l":1,"res":[{"q":0,"c":true}]}`,
		`{"k":"lease-request","w":"w","res":[{"q":0,"c":true}]}`,
		`{"k":"lease-request","w":"w","l":1}`,
		`{"k":"lease-grant","l":1,"f":0,"n":2,"ttl":1,"i":[{"q":0,"u":"u","d":"d","t":0},{"q":5,"u":"u","d":"d","t":0}]}`,
		`{"k":"lease-grant","l":1,"f":0,"n":3,"ttl":1,"i":[]}`,
		`{"k":"lease-request","w":"w","l":1,"res":[{"q":9,"c":true},{"q":3,"c":true}]}`,
		`{"k":"lease-request","w":"w","l":1,"res":[{"q":0}]}`,
		`{"k":"lease-grant","l":7,"f":96,"n":2,"tt`,
		`{"k":"ack"}{"k":"ack"}`,
		``,
		`null`,
		`[1,2,3]`,
		"\x00\x01\xfe\xff",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return // rejected input; only acceptance carries obligations
		}
		if verr := fr.Validate(); verr != nil {
			t.Fatalf("DecodeFrame accepted a frame its own Validate rejects: %v\ninput: %q", verr, data)
		}
		enc, err := EncodeFrame(fr)
		if err != nil {
			t.Fatalf("EncodeFrame failed on accepted frame: %v\ninput: %q", err, data)
		}
		fr2, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-decoding canonical encoding failed: %v\nencoded: %q", err, enc)
		}
		enc2, err := EncodeFrame(fr2)
		if err != nil {
			t.Fatalf("re-encoding failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not canonical:\nfirst:  %q\nsecond: %q", enc, enc2)
		}
	})
}
