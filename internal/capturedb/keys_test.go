package capturedb

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/capture"
)

// keysOf is what Keys must hold for c, derived without the scanner.
func keysOf(c *capture.Capture) string {
	var hosts []string
	seen := map[string]bool{}
	for _, q := range c.Requests {
		if q.Host != "" && !seen[q.Host] {
			seen[q.Host] = true
			hosts = append(hosts, q.Host)
		}
	}
	return fmt.Sprintf("seed=%q domain=%q day=%d config=%q failed=%v hosts=%q",
		c.SeedURL, c.FinalDomain, c.Day, c.Config, c.Failed, hosts)
}

func (k *Keys) String() string {
	hosts := make([]string, len(k.Hosts))
	for i, h := range k.Hosts {
		hosts[i] = string(h)
	}
	if len(hosts) == 0 {
		hosts = nil
	}
	return fmt.Sprintf("seed=%q domain=%q day=%d config=%q failed=%v hosts=%q",
		k.Seed, k.Domain, k.Day, k.Config, k.Failed, hosts)
}

// nonCanonical are lines that decode but that Encode would not have
// written, each with its departure from the canonical layout.
var nonCanonical = []struct{ why, line string }{
	{"reordered keys", `{"f":"","s":"https://a.example/","d":"a.example","t":1,"v":"","g":0,"st":200}` + "\n"},
	{`\u0041 for A`, `{"s":"https://\u0041.example/","f":"","d":"a.example","t":1,"v":"","g":0,"st":200}` + "\n"},
	{`\/`, `{"s":"https:\/\/a.example\/","f":"","d":"a.example","t":1,"v":"","g":0,"st":200}` + "\n"},
	{`\ufffd`, `{"s":"https://a.example/","f":"","d":"a.example","t":1,"v":"","g":0,"st":200,"r":[["a.example","/\ufffd",200,1]]}` + "\n"},
	{"-0", `{"s":"https://a.example/","f":"","d":"a.example","t":-0,"v":"","g":0,"st":200}` + "\n"},
	{`"cfg":""`, `{"s":"https://a.example/","f":"","d":"a.example","t":1,"v":"","g":0,"cfg":"","st":200}` + "\n"},
	{"uppercase hex", `{"s":"https://a.example/?a=1\u0026b=2","f":"","d":"a.example","t":1,"v":"","g":0,"st":200,"sh":"x \u003C y"}` + "\n"},
	{"raw U+2028", "{\"s\":\"https://a.example/\",\"f\":\"\",\"d\":\"a.example\",\"t\":1,\"v\":\"\",\"g\":0,\"st\":200,\"sh\":\"a\u2028b\"}\n"},
	{"missing final newline", `{"s":"https://a.example/","f":"","d":"a.example","t":1,"v":"","g":0,"st":200}`},
	{"raw <", `{"s":"https://a.example/?q=<","f":"","d":"a.example","t":1,"v":"","g":0,"st":200}` + "\n"},
	{`\u000a for \n`, `{"s":"https://a.example/","f":"","d":"a.example","t":1,"v":"","g":0,"st":200,"e":"a\u000ab"}` + "\n"},
	{"16-digit integer", `{"s":"https://a.example/","f":"","d":"a.example","t":1,"v":"","g":0,"st":1234567890123456}` + "\n"},
}

// TestCanonical: a line Encode wrote is certified and handed back as it
// is; a line that departs from the layout comes back as
// Encode(Decode(line)); keys are the decoded capture's either way.
func TestCanonical(t *testing.T) {
	check := func(name string, line []byte, wantCertified bool) {
		t.Helper()
		var k Keys
		out, err := Canonical(line, &k)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := Decode(line)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Encode(c)
		if !bytes.Equal(out, want) {
			t.Errorf("%s: Canonical gives\n%q want\n%q", name, out, want)
		}
		if certified := &out[0] == &line[0]; certified != wantCertified {
			t.Errorf("%s: certified %v, want %v", name, certified, wantCertified)
		}
		if got, want := k.String(), keysOf(c); got != want {
			t.Errorf("%s: keys\n%s want\n%s", name, got, want)
		}
	}
	for i, line := range readGolden(t) {
		c, _ := Decode(line)
		again, _ := Encode(c)
		check(fmt.Sprintf("golden line %d", i+1), line, bytes.Equal(again, line))
	}
	for _, c := range goldenCaptures() {
		line, err := Encode(stored(c))
		if err != nil {
			t.Fatal(err)
		}
		check("encoded "+c.SeedURL, line, true)
	}
	for _, tc := range nonCanonical {
		check(tc.why, []byte(tc.line), false)
	}
}

// TestEncodeKeys: the keys EncodeKeys reports are the capture's own,
// whether or not its line is canonical.
func TestEncodeKeys(t *testing.T) {
	for _, c := range goldenCaptures() {
		var k Keys
		line, err := EncodeKeys(c, &k)
		if want, _ := Encode(c); err != nil || !bytes.Equal(line, want) {
			t.Fatalf("EncodeKeys wrote %q (%v), Encode %q", line, err, want)
		}
		if got, want := k.String(), keysOf(c); got != want {
			t.Errorf("keys\n%s want\n%s", got, want)
		}
	}
}

// escapeFree reports whether each key string is written in line as its
// own bytes, so that the scanner can hand out sub-slices of the line.
func escapeFree(line []byte, c *capture.Capture) bool {
	has := func(s string) bool { return bytes.Contains(line, []byte(s)) }
	ok := has(`{"s":"`+c.SeedURL+`"`) && has(`,"d":"`+c.FinalDomain+`"`) &&
		(c.Config == "" || has(`,"cfg":"`+c.Config+`"`))
	for _, q := range c.Requests {
		ok = ok && has(`["`+q.Host+`",`)
	}
	return ok
}

// TestScanKeysAllocs: certifying a golden line and reading its keys
// allocates nothing when no key holds an escape, on any host.
func TestScanKeysAllocs(t *testing.T) {
	var k Keys
	checked := 0
	for i, line := range readGolden(t) {
		c, err := Decode(line)
		if err != nil {
			t.Fatal(err)
		}
		if !escapeFree(line, c) {
			continue
		}
		checked++
		if n := testing.AllocsPerRun(50, func() { Canonical(line, &k) }); n != 0 { //nolint:errcheck
			t.Errorf("line %d: Canonical allocates %v times", i+1, n)
		}
	}
	if checked < 10 {
		t.Fatalf("only %d golden lines have escape-free keys", checked)
	}
}

// FuzzCanonicalKeys holds the scanner to the decoder on arbitrary
// bytes: Canonical fails exactly when Decode does, always gives
// Encode(Decode(line)), certifies only lines equal to it, and reports
// the decoded capture's keys.
func FuzzCanonicalKeys(f *testing.F) {
	for _, line := range readGolden(f) {
		f.Add(string(line))
	}
	for _, tc := range nonCanonical {
		f.Add(tc.line)
	}
	f.Fuzz(func(t *testing.T, input string) {
		line := []byte(input)
		var k Keys
		out, err := Canonical(line, &k)
		c, derr := Decode(line)
		if (err == nil) != (derr == nil) {
			t.Fatalf("Canonical err %v, Decode err %v", err, derr)
		}
		if err != nil {
			return
		}
		want, err := Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("Canonical gives\n%q Encode(Decode(line))\n%q", out, want)
		}
		if got, want := k.String(), keysOf(c); got != want {
			t.Fatalf("keys\n%s want\n%s", got, want)
		}
		var k2 Keys
		if k2.scan(line) {
			if !bytes.Equal(line, want) {
				t.Fatalf("certified %q, which re-encodes as %q", line, want)
			}
			if k2.String() != k.String() {
				t.Fatalf("certified keys %s, want %s", k2.String(), k.String())
			}
		}
	})
}

func BenchmarkScanKeys(b *testing.B) {
	lines := readGolden(b)
	var k Keys
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Canonical(lines[i%len(lines)], &k); err != nil {
			b.Fatal(err)
		}
	}
}
