package capturedb

import (
	"bytes"
	"unicode/utf8"

	"repro/internal/capture"
	"repro/internal/simtime"
)

// The key scanner. The storage tiers forward the wire line a capture
// was encoded to and read only what they route, deduplicate and index
// on. A line is canonical when it is exactly Encode(Decode(line)),
// trailing newline included: the layout decodeFast reads, each integer
// as strconv writes it (no -0, at most maxDigits digits), cfg, sh and e
// present only when non-empty, and every string escaped exactly as
// appendEscaped escapes it — \" \\ \b \f \n \r \t, lowercase \u00XX for
// the other control bytes and for < > &, \u2028 and \u2029, and nothing
// else (no \/, no \ufffd, no \u0041, no raw < > & or U+2028/U+2029, no
// invalid UTF-8). Every line Encode writes for a capture whose strings
// are valid UTF-8 is canonical. Canonical certifies such a line by
// scanning it once, without decoding it; any other line is decoded and
// re-encoded, so the bytes a tier stores never depend on which path a
// line took.

// Keys are the fields of a record the storage tiers need beside its
// bytes: seed URL, day, vantage and configuration (the ingest
// idempotency key), final domain (placement and the domain index), the failed flag, and
// the request hosts the host index posts the record under. The slices
// point into the scanned line, or into the Keys' own buffer for a key
// that had to be unescaped; they stay valid until the Keys are scanned
// into again.
type Keys struct {
	Seed, Domain, Vantage, Config []byte
	Day                           simtime.Day
	Failed                        bool
	// Hosts are the distinct non-empty request hosts, first seen first.
	Hosts [][]byte
	// buf holds unescaped key strings, reused by the next scan.
	buf []byte
}

// Canonical returns line in canonical form and fills k with its keys. A
// canonical line is returned as it is, and its keys cost no allocation
// unless one of them holds an escape; any other line comes back as
// Encode(Decode(line)), freshly allocated. The error is Decode's:
// Canonical fails on exactly the lines Decode refuses.
func Canonical(line []byte, k *Keys) ([]byte, error) {
	if k.scan(line) {
		return line, nil
	}
	c, err := Decode(line)
	if err != nil {
		return nil, err
	}
	out, err := Encode(c)
	if err != nil {
		return nil, err
	}
	k.of(c)
	return out, nil
}

// EncodeKeys is Encode, also filling k with c's keys: scanned from the
// line when it is canonical, taken from c when it is not (a string of c
// that is not valid UTF-8), so they are always c's own.
func EncodeKeys(c *capture.Capture, k *Keys) ([]byte, error) {
	line, err := Encode(c)
	if err == nil && !k.scan(line) {
		k.of(c)
	}
	return line, err
}

// of fills k from a decoded capture.
func (k *Keys) of(c *capture.Capture) {
	*k = Keys{
		Seed: []byte(c.SeedURL), Domain: []byte(c.FinalDomain), Vantage: []byte(c.Vantage.Name),
		Config: []byte(c.Config), Day: c.Day, Failed: c.Failed, Hosts: k.Hosts[:0], buf: k.buf[:0],
	}
	for _, q := range c.Requests {
		if q.Host != "" {
			k.addHost([]byte(q.Host))
		}
	}
}

// addHost records h unless it is already among the hosts. A capture
// logs a dozen requests to a handful of hosts, so a linear probe beats
// a set.
func (k *Keys) addHost(h []byte) {
	for _, seen := range k.Hosts {
		if bytes.Equal(seen, h) {
			return
		}
	}
	if cap(k.Hosts) == 0 {
		k.Hosts = make([][]byte, 0, 8)
	}
	k.Hosts = append(k.Hosts, h)
}

// scanner walks a line the way decodeFast does, but only certifies it:
// ok turns false at the first byte Encode would not have written there.
// It collects the keys in its own copy, so that the Keys scanned into
// can stay on their caller's stack.
type scanner struct {
	cursor
	Keys
}

// scan reports whether line is canonical, filling k with its keys when
// it is (k is unspecified when it is not).
func (k *Keys) scan(line []byte) bool {
	s := scanner{cursor: cursor{line: line, ok: true}, Keys: Keys{Hosts: k.Hosts[:0], buf: k.buf[:0]}}
	s.lit(`{"s":`)
	s.Seed = s.key()
	s.lit(`,"f":`)
	s.str()
	s.lit(`,"d":`)
	s.Domain = s.key()
	s.lit(`,"t":`)
	s.Day = simtime.Day(s.num())
	s.lit(`,"v":`)
	s.Vantage = s.key()
	s.lit(`,"g":`)
	s.num()
	s.has(`,"c":true`)
	if s.has(`,"cfg":`) {
		s.Config = s.key()
		s.nonEmpty(s.Config)
	}
	s.lit(`,"st":`)
	s.num()
	if s.has(`,"r":[`) {
		for more := true; more && s.ok; more = s.more() {
			s.char('[')
			if h := s.key(); len(h) > 0 {
				s.addHost(h)
			}
			s.char(',')
			s.str()
			s.char(',')
			s.num()
			s.char(',')
			s.num()
			s.char(']')
		}
		s.char(']')
	}
	if s.has(`,"ck":[`) {
		for more := true; more && s.ok; more = s.more() {
			// A cookie is domain|name|value; with fewer than two '|'
			// Decode refuses it. Canonical escapes never write a '|'.
			raw, _ := s.str()
			i := bytes.IndexByte(raw, '|')
			if i < 0 || bytes.IndexByte(raw[i+1:], '|') < 0 {
				s.ok = false
			}
		}
		s.char(']')
	}
	if s.has(`,"sto":[`) {
		for more := true; more && s.ok; more = s.more() {
			s.char('[')
			s.num()
			s.char(',')
			s.str()
			s.char(',')
			s.str()
			s.char(',')
			s.bool()
			s.char(']')
		}
		s.char(']')
	}
	if s.has(`,"sh":`) {
		raw, _ := s.str()
		s.nonEmpty(raw)
	}
	s.has(`,"to":true`)
	s.Failed = s.has(`,"x":true`)
	if s.has(`,"e":`) {
		raw, _ := s.str()
		s.nonEmpty(raw)
	}
	s.lit("}\n")
	*k = s.Keys
	return s.ok && s.i == len(line)
}

// nonEmpty fails the line on an optional string Encode would have
// omitted.
func (s *scanner) nonEmpty(v []byte) {
	if len(v) == 0 {
		s.ok = false
	}
}

// num reads an integer as strconv.AppendInt writes it.
func (s *scanner) num() int64 {
	neg := s.i < len(s.line) && s.line[s.i] == '-'
	n := s.int()
	if neg && n == 0 {
		s.ok = false // -0
	}
	return n
}

// Byte classes inside a canonical string.
const (
	chPlain  = iota // written as itself
	chBad           // never written raw: a control byte, < > &
	chQuote         // the closing quote
	chEscape        // a backslash
	chMulti         // the lead byte of a multi-byte UTF-8 sequence (or junk)
)

var strClass = func() (t [256]uint8) {
	for b := 0; b < 256; b++ {
		switch {
		case b < 0x20, b == '<', b == '>', b == '&':
			t[b] = chBad
		case b == '"':
			t[b] = chQuote
		case b == '\\':
			t[b] = chEscape
		case b >= utf8.RuneSelf:
			t[b] = chMulti
		}
	}
	return t
}()

// str reads a string and returns its bytes between the quotes, escapes
// as written, and whether it held any.
func (s *scanner) str() (raw []byte, escaped bool) {
	s.char('"')
	if !s.ok {
		return nil, false
	}
	line, start := s.line, s.i
	for i := plainCanonical(line, start); i < len(line); i = plainCanonical(line, i) {
		if line[i] == '"' {
			s.i = i + 1
			return line[start:i:i], escaped
		}
		switch strClass[line[i]] {
		case chEscape:
			n := escapeLen(line[i:])
			if n == 0 {
				s.ok = false
				return nil, false
			}
			escaped = true
			i += n
		case chMulti:
			r, size := utf8.DecodeRune(line[i:])
			if (r == utf8.RuneError && size == 1) || r == '\u2028' || r == '\u2029' {
				s.ok = false
				return nil, false
			}
			i += size
		default:
			s.ok = false
			return nil, false
		}
	}
	s.ok = false
	return nil, false
}

// key reads a string and returns its value: the raw bytes when it holds
// no escape, else its unescaped copy in the keys' buffer.
func (s *scanner) key() []byte {
	raw, escaped := s.str()
	if !escaped {
		return raw
	}
	start := len(s.buf)
	s.buf = unescape(s.buf, raw)
	return s.buf[start:len(s.buf):len(s.buf)]
}

// escapeLen is the length of the escape b starts with if appendEscaped
// writes it, else 0.
func escapeLen(b []byte) int {
	if len(b) < 2 {
		return 0
	}
	switch b[1] {
	case '"', '\\', 'b', 'f', 'n', 'r', 't':
		return 2
	case 'u':
		if len(b) < 6 {
			return 0
		}
		switch string(b[2:6]) {
		case "2028", "2029", "003c", "003e", "0026":
			return 6
		}
		if b[2] != '0' || b[3] != '0' || (b[4] != '0' && b[4] != '1') || !isLowerHex(b[5]) {
			return 0
		}
		switch unhex(b[4])<<4 | unhex(b[5]) {
		case '\b', '\f', '\n', '\r', '\t':
			return 0 // written as a short escape
		}
		return 6
	}
	return 0
}

func isLowerHex(c byte) bool { return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' }

func unhex(c byte) byte {
	if c <= '9' {
		return c - '0'
	}
	return c - 'a' + 10
}

// unescape appends the value of raw, a canonical string's inside, to dst.
func unescape(dst, raw []byte) []byte {
	for len(raw) > 0 {
		i := bytes.IndexByte(raw, '\\')
		if i < 0 {
			return append(dst, raw...)
		}
		dst = append(dst, raw[:i]...)
		raw = raw[i:]
		switch c := raw[1]; c {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			switch string(raw[2:6]) {
			case "2028":
				dst = append(dst, "\u2028"...)
			case "2029":
				dst = append(dst, "\u2029"...)
			default:
				dst = append(dst, unhex(raw[4])<<4|unhex(raw[5]))
			}
			raw = raw[6:]
			continue
		default: // " or \
			dst = append(dst, c)
		}
		raw = raw[2:]
	}
	return dst
}
