package fleet

import (
	"strings"
	"testing"

	"repro/internal/simtime"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Type: FrameLeaseRequest, Worker: "w1"},
		{Type: FrameLeaseGrant, Lease: 3, First: 64, N: 2, TTLMS: 5000, Items: []WorkItem{
			{Seq: 64, URL: "https://a.com/x", Domain: "a.com", Day: simtime.Day(1)},
			{Seq: 65, URL: "https://b.com/y", Domain: "b.com", Day: simtime.Day(1)},
		}},
		{Type: FrameIdle, RetryMS: 250},
		{Type: FrameDrained},
		{Type: FrameHeartbeat, Worker: "w1", Lease: 3},
		{Type: FrameLeaseRequest, Worker: "w1", Lease: 3, Results: []Result{
			{Seq: 64, Captured: true},
			{Seq: 65, Attempts: 3, Reason: "budget-exhausted", Err: "boom"},
		}},
		{Type: FrameAck},
		{Type: FrameError, Err: "unknown lease"},
	}
	for _, f := range frames {
		data, err := EncodeFrame(f)
		if err != nil {
			t.Fatalf("%s: encode: %v", f.Type, err)
		}
		got, err := DecodeFrame(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Type, err)
		}
		data2, err := EncodeFrame(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", f.Type, err)
		}
		if string(data) != string(data2) {
			t.Errorf("%s: round trip not identical:\n%q\n%q", f.Type, data, data2)
		}
	}
}

func TestDecodeFrameRejects(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"unknown type", `{"k":"gossip"}`, "unknown frame type"},
		{"unknown field", `{"k":"ack","zzz":1}`, "unknown field"},
		{"trailing garbage", `{"k":"ack"} {"k":"ack"}`, "trailing data"},
		{"request without worker", `{"k":"lease-request"}`, "without worker"},
		{"request with capacity", `{"k":"lease-request","w":"w","cap":8}`, "unknown field"},
		{"completion frame", `{"k":"completion","w":"w","l":1,"res":[{"q":0,"c":true}]}`, "unknown frame type"},
		{"results without lease", `{"k":"lease-request","w":"w","res":[{"q":0,"c":true}]}`, "results come with the lease"},
		{"lease without results", `{"k":"lease-request","w":"w","l":1}`, "results come with the lease"},
		{"grant gap", `{"k":"lease-grant","l":1,"f":0,"n":2,"ttl":1,"i":[{"q":0,"u":"u","d":"d","t":0},{"q":7,"u":"u","d":"d","t":0}]}`, "contiguous"},
		{"grant count mismatch", `{"k":"lease-grant","l":1,"f":0,"n":3,"ttl":1,"i":[{"q":0,"u":"u","d":"d","t":0}]}`, "items for n=3"},
		{"grant bad day", `{"k":"lease-grant","l":1,"f":0,"n":1,"ttl":1,"i":[{"q":0,"u":"u","d":"d","t":-4}]}`, "invalid day"},
		{"results disorder", `{"k":"lease-request","w":"w","l":1,"res":[{"q":5,"c":true},{"q":2,"c":true}]}`, "out of order"},
		{"result unclassified", `{"k":"lease-request","w":"w","l":1,"res":[{"q":0}]}`, "neither captured nor classified"},
		{"error without text", `{"k":"error"}`, "without error text"},
	}
	for _, tc := range cases {
		if _, err := DecodeFrame([]byte(tc.in)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.in)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}
