package capturedb

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

// FuzzScan hardens the JSONL reader: arbitrary input must never panic,
// and valid lines it accepts must survive a write-read round trip.
func FuzzScan(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Record(sample("a.com", 100, "cdn.cookielaw.org"))
	w.Close()
	f.Add(buf.String())
	f.Add(`{"d":"a.com","t":5,"st":200}`)
	f.Add(`{"r":[["h","/",200,"not-a-number"]]}`)
	f.Add(`{"ck":["no-pipes"]}`)
	f.Add(`{"sto":[[1,"o","k",true]]}`)
	f.Add("not json at all")
	// Torn-write shapes: records cut at segment boundaries that the
	// sharded store must survive on reopen.
	full := buf.String()
	f.Add(full + full[:len(full)/2])       // complete record + truncated tail
	f.Add(full[:len(full)-2])              // final quote+newline torn off
	f.Add(full + `{"d":"b.com","t`)        // tear inside a JSON key
	f.Add(full + full + full[:12])         // two records + short tail
	f.Add(`{"d":"a.com","st":200}` + "\n") // minimal record, clean boundary
	f.Fuzz(func(t *testing.T, input string) {
		var collected []*capture.Capture
		err := Scan(strings.NewReader(input), Query{IncludeFailed: true}, func(c *capture.Capture) bool {
			collected = append(collected, c)
			return true
		})
		if err != nil {
			return
		}
		// Anything accepted must round-trip through the writer.
		var out bytes.Buffer
		w := NewWriter(&out)
		for _, c := range collected {
			w.Record(c)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("round-trip write failed: %v", err)
		}
		n, err := Count(bytes.NewReader(out.Bytes()), Query{IncludeFailed: true})
		if err != nil {
			t.Fatalf("round-trip read failed: %v", err)
		}
		if n != len(collected) {
			t.Fatalf("round-trip count %d != %d", n, len(collected))
		}
	})
}

// fuzzFields cuts fuzz bytes into capture fields: a string takes a
// length byte and then that many bytes, any bytes; an integer takes
// up to seven bytes and stays within 15 digits, the range the wire
// carries exactly (json reads list numbers through float64).
type fuzzFields struct{ b string }

func (f *fuzzFields) byte() byte {
	if f.b == "" {
		return 0
	}
	c := f.b[0]
	f.b = f.b[1:]
	return c
}

func (f *fuzzFields) str() string {
	n := min(int(f.byte()%32), len(f.b))
	s := f.b[:n]
	f.b = f.b[n:]
	return s
}

func (f *fuzzFields) int() int {
	var n int64
	for k := f.byte() % 8; k > 0; k-- {
		n = n<<8 | int64(f.byte())
	}
	n %= 1e15
	if f.byte()%2 == 1 {
		n = -n
	}
	return int(n)
}

func (f *fuzzFields) capture() *capture.Capture {
	c := &capture.Capture{
		SeedURL: f.str(), FinalURL: f.str(), FinalDomain: f.str(), Day: simtime.Day(f.int()),
		Vantage: capture.Vantage{Name: f.str(), Geo: webworld.Geo(f.int()), Cloud: f.byte()%2 == 1},
		Config:  f.str(), Status: f.int(),
	}
	for n := f.byte() % 4; n > 0; n-- {
		c.Requests = append(c.Requests, capture.Request{Host: f.str(), Path: f.str(), Status: f.int(), BytesRaw: f.int()})
	}
	for n := f.byte() % 4; n > 0; n-- {
		c.Cookies = append(c.Cookies, webworld.Cookie{Domain: f.str(), Name: f.str(), Value: f.str()})
	}
	for n := f.byte() % 4; n > 0; n-- {
		c.Storage = append(c.Storage, webworld.StorageRecord{
			Kind: webworld.StorageKind(f.int()), Origin: f.str(), Key: f.str(), Identifying: f.byte()%2 == 1,
		})
	}
	c.ScreenshotText, c.TimedOut, c.Failed, c.Error = f.str(), f.byte()%2 == 1, f.byte()%2 == 1, f.str()
	return c
}

// FuzzCodecDifferential holds the hand-written codec to the reflection
// codec that defined the wire format. On arbitrary lines, Decode and
// the encoding/json decoder accept and reject alike and agree on what
// they accept. On captures cut from the same bytes, Encode writes what
// json.Marshal(toRec(c)) writes — or refuses a cookie key holding '|' —
// and its line decodes on the fast path to what the wire keeps of c.
func FuzzCodecDifferential(f *testing.F) {
	for _, line := range readGolden(f) {
		f.Add(string(line))
	}
	for _, s := range []string{
		`{"f":"","s":"","d":"","t":0,"v":"","g":0,"st":0}`,       // key order
		`{"s":"","f":"","d":"","t":0,"v":"","g":0,"st":0,"z":1}`, // unknown key
		`{"S":"","f":"","d":"","t":0,"v":"","g":0,"st":0}`,       // case-folded key
		`{ "s":"","f":"","d":"","t":0,"v":"","g":0,"st":0}`,      // whitespace
		`{"s":null,"f":"","d":"","t":0,"v":"","g":0,"st":0}`,
		`{"s":"","f":"","d":"","t":1.0,"v":"","g":0,"st":0}`,
		`{"s":"","f":"","d":"","t":0,"v":"","g":0,"st":0,"r":[["h","/",1e2,1234567890123456789]]}`,
		`{"s":"🍪","f":"\ud800","d":"","t":0,"v":"","g":0,"st":0}`,
		`{"s":"","f":"","d":"","t":0,"v":"","g":0,"c":false,"cfg":"","st":0,"r":[],"ck":["a|b"]}`,
		`{"s":"","f":"","d":"","t":0,"v":"","g":0,"st":0,"sto":[[1,"o","k",1]]}` + "\r\n",
		"{\"s\":\"\xff\",\"f\":\"\",\"d\":\"\",\"t\":0,\"v\":\"\",\"g\":0,\"st\":0}",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		line := []byte(input)
		got, gerr := Decode(line)
		want, werr := decodeJSON(line)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Decode err %v, reflection decoder err %v", gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("Decode = %+v, reflection decoder = %+v", got, want)
		}

		c := (&fuzzFields{b: input}).capture()
		enc, err := Encode(c)
		pipe := false
		for _, ck := range c.Cookies {
			pipe = pipe || strings.ContainsRune(ck.Domain+ck.Name, '|')
		}
		if pipe != (err != nil) {
			t.Fatalf("cookie key holds '|': %v, Encode err %v", pipe, err)
		}
		if pipe {
			return
		}
		ref, err := refEncode(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("Encode wrote\n%q\nthe reflection encoder\n%q", enc, ref)
		}
		fast := decodeFast(enc)
		if fast == nil {
			t.Fatalf("%q takes the fallback", enc)
		}
		if want := stored(c); !reflect.DeepEqual(fast, want) {
			t.Fatalf("%q decodes as %+v, want %+v", enc, fast, want)
		}
	})
}
