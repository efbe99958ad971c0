package capturedb

import (
	"bufio"
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/capture"
	"repro/internal/crawler"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

// goldenPath holds the wire lines of goldenCaptures, one per capture,
// as the encoding/json encoder wrote them. It is the codec's contract:
// every segment, pack and manifest hash in every store rests on these
// bytes.
const goldenPath = "testdata/wire.golden"

// goldenCaptures covers every escape class the wire format has (HTML
// characters, U+2028/U+2029, invalid UTF-8, the short escapes, other
// control bytes, quotes and backslashes), non-ASCII text, every field
// that is omitted when empty both alone and together, negative and
// 15-digit integers, all storage kinds, and failed and timed-out
// captures.
func goldenCaptures() []*capture.Capture {
	full := &capture.Capture{
		SeedURL:     "https://www.example.com/",
		FinalURL:    "https://www.example.com/home?a=1&b=2",
		FinalDomain: "example.com",
		Day:         812,
		Vantage:     capture.EUCloud,
		Config:      "extended-timeout",
		Status:      200,
		Requests: []capture.Request{
			{Host: "www.example.com", Path: "/", Status: 200, BytesRaw: 15321, BytesCompressed: 4410},
			{Host: "cdn.cookielaw.org", Path: "/scripttemplates/otSDKStub.js", Status: 200, BytesRaw: 2210, BytesCompressed: 2210},
			{Host: "consent.cookiebot.com", Path: "/uc.js", Status: 304},
		},
		Cookies: []webworld.Cookie{
			{Domain: "example.com", Name: "OptanonConsent", Value: "isIABGlobal=false&datestamp=Mon"},
			{Domain: ".google.com", Name: "NID", Value: "a|b|c"},
			{},
		},
		Storage: []webworld.StorageRecord{
			{Kind: webworld.LocalStorage, Origin: "www.example.com", Key: "prefs"},
			{Kind: webworld.SessionStorage, Origin: "www.example.com", Key: "tab", Identifying: true},
			{Kind: webworld.IndexedDB, Origin: "www.google-analytics.com", Key: "_ga_client", Identifying: true},
			{Kind: webworld.WebSQL, Origin: "legacy.example.com", Key: "db"},
		},
		ScreenshotText: "We value your privacy",
		DOM:            "<html>not stored</html>",
	}
	caps := []*capture.Capture{
		full,
		{}, // every field at its zero value
		// HTML characters, escaped as < > &.
		{
			SeedURL: "https://a.example/?q=<script>&x=1", FinalURL: "https://a.example/>",
			FinalDomain: "a.example", Vantage: capture.USCloud, Status: 200,
			Requests:       []capture.Request{{Host: "a.example", Path: "/<&>", Status: 200, BytesRaw: 1}},
			ScreenshotText: "Tom & Jerry <b>accept</b>",
		},
		// The line and paragraph separators.
		{
			FinalDomain: "b.example", Vantage: capture.EUUniversity, Status: 200,
			ScreenshotText: "line\u2028sep\u2029para",
			Cookies:        []webworld.Cookie{{Domain: "b.example", Name: "n", Value: "\u2028"}},
		},
		// Invalid UTF-8: a stray byte, a truncated sequence, an encoded
		// surrogate and a code point past U+10FFFF — each invalid byte
		// is written as \ufffd.
		{
			SeedURL: "https://c.example/\xff", FinalURL: "https://c.example/\xc3",
			FinalDomain: "c.example", Status: 200,
			Requests:       []capture.Request{{Host: "c.example\xed\xa0\x80", Path: "/\xf4\x90\x80\x80", Status: 200}},
			Storage:        []webworld.StorageRecord{{Kind: webworld.LocalStorage, Origin: "\xfe", Key: "k\x80"}},
			ScreenshotText: "ok\xe2\x82",
		},
		// The short escapes, other control bytes, DEL, quotes,
		// backslashes and a slash.
		{
			SeedURL: "https://d.example/\"q\"", FinalURL: `https://d.example/\path/`,
			FinalDomain: "d.example", Status: 200,
			ScreenshotText: "\b\f\n\r\t|\x00\x01\x1f\x7f|\"\\/",
			Config:         "tab\there",
			Error:          "quote \" backslash \\",
			Requests:       []capture.Request{{Host: "d.example", Path: "/\x00\"\\", Status: 200}},
			Cookies:        []webworld.Cookie{{Domain: "d.example", Name: "q\"", Value: "\\\n"}},
		},
		// Non-ASCII text, two- to four-byte sequences.
		{
			SeedURL: "https://xn--bcher-kva.example/", FinalURL: "https://bücher.example/straße",
			FinalDomain: "bücher.example", Vantage: capture.EUCloud, Status: 200, Config: "lang-de",
			ScreenshotText: "Wir schätzen Ihre Privatsphäre — 隐私 🍪",
			Cookies:        []webworld.Cookie{{Domain: "bücher.example", Name: "Zustimmung", Value: "ja ✓"}},
			Storage:        []webworld.StorageRecord{{Kind: webworld.IndexedDB, Origin: "bücher.example", Key: "schlüssel"}},
		},
		// Negative and 15-digit integers in every integer position.
		{
			FinalDomain: "e.example", Day: -1,
			Vantage: capture.Vantage{Name: "odd", Geo: -7},
			Status:  999999999999999,
			Requests: []capture.Request{
				{Host: "e.example", Path: "/", Status: -1, BytesRaw: 999999999999999},
				{Host: "e.example", Path: "/neg", Status: -999999999999999, BytesRaw: -42},
			},
			Storage: []webworld.StorageRecord{
				{Kind: -3, Origin: "e.example", Key: "k"},
				{Kind: 123456789012345, Origin: "e.example", Key: "big"},
			},
		},
		{FinalDomain: "f.example", Day: 999999999999999, Vantage: capture.Vantage{Geo: 999999999999999}, Status: -999999999999999},
		// Failed, timed out, with an error text.
		{
			SeedURL: "https://g.example/", FinalDomain: "g.example", Day: 3, Vantage: capture.USCloud,
			Failed: true, TimedOut: true, Error: "net::ERR_CONNECTION_REFUSED",
		},
		{SeedURL: "https://h.example/", Day: 4, Vantage: capture.EUCloud, Failed: true, Error: "connection refused"},
	}
	// Each field that is omitted when empty, present alone.
	for _, set := range []func(*capture.Capture){
		func(c *capture.Capture) { c.Vantage.Cloud = true },
		func(c *capture.Capture) { c.Config = "default" },
		func(c *capture.Capture) { c.Requests = []capture.Request{{}} },
		func(c *capture.Capture) { c.Cookies = []webworld.Cookie{{Domain: "i.example", Name: "a", Value: ""}} },
		func(c *capture.Capture) { c.Storage = []webworld.StorageRecord{{}} },
		func(c *capture.Capture) { c.ScreenshotText = "shot" },
		func(c *capture.Capture) { c.TimedOut = true },
		func(c *capture.Capture) { c.Failed = true },
		func(c *capture.Capture) { c.Error = "err" },
	} {
		c := &capture.Capture{SeedURL: "https://i.example/", FinalDomain: "i.example", Day: 7, Status: 200}
		set(c)
		caps = append(caps, c)
	}
	return caps
}

// readGolden returns the golden lines, each with its newline.
func readGolden(t testing.TB) [][]byte {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		lines = append(lines, append(sc.Bytes(), '\n'))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// crawlLines returns the wire lines of a small seeded toplist crawl,
// rows shaped like the archive's: about 1 KB each, mostly requests and
// cookies, a non-ASCII screenshot text, a few escapes.
func crawlLines(t testing.TB) [][]byte {
	t.Helper()
	w := webworld.New(webworld.Config{Seed: 7, Domains: 2000})
	var domains []string
	for _, d := range w.Domains()[:100] {
		domains = append(domains, d.Name)
	}
	var lines [][]byte
	for _, c := range (&crawler.Campaign{World: w, Domains: domains, Day: simtime.Table1Snapshot, Workers: 1}).Run() {
		line, err := Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	return lines
}

// benchLines runs fn over the golden lines and over crawlLines, one
// line per op, each as a sub-benchmark that reports MB/s.
func benchLines(b *testing.B, fn func(line []byte) error) {
	for _, set := range []struct {
		name  string
		lines [][]byte
	}{{"golden", readGolden(b)}, {"crawl", crawlLines(b)}} {
		b.Run(set.name, func(b *testing.B) {
			n := 0
			for _, l := range set.lines {
				n += len(l)
			}
			b.SetBytes(int64(n / len(set.lines)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := fn(set.lines[i%len(set.lines)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// stored is what the wire keeps of c, and so what decoding a line
// written from c gives back: no DOM, the raw byte count standing in
// for the compressed one, each invalid UTF-8 byte as U+FFFD, and empty
// lists absent.
func stored(c *capture.Capture) *capture.Capture {
	valid := func(s string) string {
		var b strings.Builder
		for i := 0; i < len(s); {
			r, n := utf8.DecodeRuneInString(s[i:])
			b.WriteRune(r)
			i += n
		}
		return b.String()
	}
	w := &capture.Capture{
		SeedURL: valid(c.SeedURL), FinalURL: valid(c.FinalURL), FinalDomain: valid(c.FinalDomain),
		Day: c.Day, Vantage: capture.Vantage{Name: valid(c.Vantage.Name), Geo: c.Vantage.Geo, Cloud: c.Vantage.Cloud},
		Config: valid(c.Config), Status: c.Status, ScreenshotText: valid(c.ScreenshotText),
		TimedOut: c.TimedOut, Failed: c.Failed, Error: valid(c.Error),
	}
	for _, q := range c.Requests {
		w.Requests = append(w.Requests, capture.Request{
			Host: valid(q.Host), Path: valid(q.Path), Status: q.Status, BytesRaw: q.BytesRaw, BytesCompressed: q.BytesRaw,
		})
	}
	for _, ck := range c.Cookies {
		w.Cookies = append(w.Cookies, webworld.Cookie{Domain: valid(ck.Domain), Name: valid(ck.Name), Value: valid(ck.Value)})
	}
	for _, s := range c.Storage {
		w.Storage = append(w.Storage, webworld.StorageRecord{Kind: s.Kind, Origin: valid(s.Origin), Key: valid(s.Key), Identifying: s.Identifying})
	}
	return w
}

// TestWireGolden pins the wire format byte for byte: Encode reproduces
// every golden line, as the reflection encoder still does, and Decode
// reads it without the fallback, as the reflection decoder does, giving
// back what the wire keeps of the capture, which then encodes to a line
// that decodes to it again.
func TestWireGolden(t *testing.T) {
	caps := goldenCaptures()
	lines := readGolden(t)
	if len(lines) != len(caps) {
		t.Fatalf("%s has %d lines, goldenCaptures %d", goldenPath, len(lines), len(caps))
	}
	for i, c := range caps {
		got, err := Encode(c)
		if err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
		if !bytes.Equal(got, lines[i]) {
			t.Errorf("capture %d encodes as\n%s want\n%s", i, got, lines[i])
		}
		if ref, err := refEncode(c); err != nil || !bytes.Equal(ref, lines[i]) {
			t.Errorf("capture %d: the reflection encoder no longer writes the golden line (%v)", i, err)
		}
		if decodeFast(lines[i]) == nil {
			t.Errorf("line %d takes the encoding/json fallback", i+1)
		}
		dec, err := Decode(lines[i])
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		if ref, err := decodeJSON(lines[i]); err != nil || !reflect.DeepEqual(dec, ref) {
			t.Errorf("line %d: the reflection decoder reads %+v (%v)", i+1, ref, err)
		}
		if want := stored(c); !reflect.DeepEqual(dec, want) {
			t.Errorf("line %d decodes as %+v, want %+v", i+1, dec, want)
		}
		again, err := Encode(dec)
		if err != nil {
			t.Fatalf("line %d re-encode: %v", i+1, err)
		}
		if dec2, err := Decode(again); err != nil || !reflect.DeepEqual(dec2, dec) {
			t.Errorf("line %d does not survive a second round trip: %v", i+1, err)
		}
	}
}

// TestEncodeRefusesPipeInCookieKey: the wire joins a cookie's domain,
// name and value with '|' and splits at the first two, so a '|' in the
// domain or name would come back silently moved into the next part.
// Encode refuses such a cookie; a '|' in the value round-trips.
func TestEncodeRefusesPipeInCookieKey(t *testing.T) {
	for _, ck := range []webworld.Cookie{
		{Domain: "a|b", Name: "n", Value: "v"},
		{Domain: "a", Name: "n|m", Value: "v"},
	} {
		c := &capture.Capture{FinalDomain: "a.example", Cookies: []webworld.Cookie{ck}}
		if line, err := Encode(c); err == nil {
			t.Errorf("cookie %+v encoded as %s", ck, line)
		}
	}
	ck := webworld.Cookie{Domain: "a", Name: "n", Value: "v|w|"}
	line, err := Encode(&capture.Capture{Cookies: []webworld.Cookie{ck}})
	if err != nil {
		t.Fatal(err)
	}
	if c, err := Decode(line); err != nil || len(c.Cookies) != 1 || c.Cookies[0] != ck {
		t.Errorf("cookie %+v comes back as %+v (%v)", ck, c, err)
	}
}

// TestStringKernel holds plain, which tests eight bytes at a time, to
// a byte-at-a-time reference: every byte value at every offset 0–16 of
// a 24-byte string, scanned from every start within the first word.
// And it holds the decoder to the reflection decoder on a rune, or a
// torn one, at every such offset, so on runes that straddle two words.
func TestStringKernel(t *testing.T) {
	ref := func(s []byte, i int) int {
		for ; i < len(s); i++ {
			if b := s[i]; b < 0x20 || b >= utf8.RuneSelf || b == '"' || b == '\\' {
				break
			}
		}
		return i
	}
	for off := 0; off <= 16; off++ {
		for b := 0; b < 256; b++ {
			s := bytes.Repeat([]byte{'a'}, 24)
			s[off] = byte(b)
			for start := 0; start < 8; start++ {
				if got, want := plain(s, start), ref(s, start); got != want {
					t.Fatalf("byte %#x at %d, from %d: plain = %d, want %d", b, off, start, got, want)
				}
			}
		}
	}
	// plainCanonical stops where the key scanner's byte classes leave
	// chPlain: also at a raw '<', '>' or '&'.
	for off := 0; off <= 16; off++ {
		for b := 0; b < 256; b++ {
			s := bytes.Repeat([]byte{'a'}, 24)
			s[off] = byte(b)
			for start := 0; start < 8; start++ {
				want := start
				for want < len(s) && strClass[s[want]] == chPlain {
					want++
				}
				if got := plainCanonical(s, start); got != want {
					t.Fatalf("byte %#x at %d, from %d: plainCanonical = %d, want %d", b, off, start, got, want)
				}
			}
		}
	}
	for _, r := range []string{"é", "—", "🍪", "\u2028", "\xe2\x80"} {
		for off := 0; off <= 16; off++ {
			v := strings.Repeat("a", off) + r + strings.Repeat("b", 24-off-len(r))
			line := []byte(`{"s":"` + v + `","f":"","d":"","t":0,"v":"","g":0,"st":0}` + "\n")
			got, gerr := Decode(line)
			want, werr := decodeJSON(line)
			if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%q: Decode = %+v (%v), reflection decoder = %+v (%v)", line, got, gerr, want, werr)
			}
			if valid := utf8.ValidString(r); (decodeFast(line) != nil) != valid {
				t.Errorf("%q: takes the fast path: %v, want %v", line, !valid, valid)
			}
		}
	}
}

// TestCodecAllocs pins the codec's allocations, which repeat exactly
// on any host: none to encode into a buffer with room, and to decode
// one each for the capture, its string values and its three lists, on
// the golden lines and on rows shaped like a crawl's.
func TestCodecAllocs(t *testing.T) {
	buf := make([]byte, 0, 64<<10)
	for i, c := range goldenCaptures() {
		if n := testing.AllocsPerRun(50, func() { buf, _ = AppendEncode(buf[:0], c) }); n != 0 {
			t.Errorf("capture %d: AppendEncode allocates %v times", i, n)
		}
	}
	for set, lines := range map[string][][]byte{"golden": readGolden(t), "crawl": crawlLines(t)} {
		for i, line := range lines {
			if n := testing.AllocsPerRun(50, func() { Decode(line) }); n > 5 { //nolint:errcheck
				t.Errorf("%s line %d: Decode allocates %v times, want at most 5", set, i+1, n)
			}
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	caps := goldenCaptures()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(caps[i%len(caps)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	benchLines(b, func(line []byte) error {
		_, err := Decode(line)
		return err
	})
}
