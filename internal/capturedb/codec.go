package capturedb

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/capture"
	"repro/internal/simtime"
	"repro/internal/webworld"
)

// The wire codec. A record is one JSON object whose keys always come in
// one order, the canonical layout:
//
//	{"s":S,"f":S,"d":S,"t":N,"v":S,"g":N[,"c":true][,"cfg":S],"st":N
//	 [,"r":[[S,S,N,N],…]][,"ck":[S,…]][,"sto":[[N,S,S,B],…]]
//	 [,"sh":S][,"to":true][,"x":true][,"e":S]}\n
//
// A bracketed field is written only when it is non-empty. Strings are
// escaped exactly as encoding/json escapes them: < > & as \u003c \u003e \u0026,
// U+2028 and U+2029 as \u2028 \u2029, each invalid UTF-8 byte as \ufffd, the
// short escapes \b \f \n \r \t, other control bytes as \u00XX. So the
// bytes are the ones every existing store, pack and manifest hash
// holds (testdata/wire.golden pins them).
//
// The decoder reads that layout without reflection. A line that departs
// from it — other key order, unknown or case-folded keys, whitespace,
// null, a number that is not an integer of at most 15 digits (json
// rounds those through float64), a surrogate \u escape, invalid UTF-8 —
// goes to the encoding/json decoder instead (decodeJSON), so every line
// decodes, or fails, exactly as it always has. Nothing Encode writes
// takes that path.

// AppendEncode appends c's wire line, trailing newline included, to
// dst. A cookie whose domain or name holds '|' cannot be stored: the
// wire joins a cookie's parts with '|' and splits at the first two.
func AppendEncode(dst []byte, c *capture.Capture) ([]byte, error) {
	for _, ck := range c.Cookies {
		if strings.IndexByte(ck.Domain, '|') >= 0 || strings.IndexByte(ck.Name, '|') >= 0 {
			return dst, fmt.Errorf("capturedb: cookie %q of %q: a cookie domain or name holding '|' cannot be stored", ck.Name, ck.Domain)
		}
	}
	dst = append(dst, `{"s":`...)
	dst = appendString(dst, c.SeedURL)
	dst = append(dst, `,"f":`...)
	dst = appendString(dst, c.FinalURL)
	dst = append(dst, `,"d":`...)
	dst = appendString(dst, c.FinalDomain)
	dst = append(dst, `,"t":`...)
	dst = strconv.AppendInt(dst, int64(c.Day), 10)
	dst = append(dst, `,"v":`...)
	dst = appendString(dst, c.Vantage.Name)
	dst = append(dst, `,"g":`...)
	dst = strconv.AppendInt(dst, int64(c.Vantage.Geo), 10)
	if c.Vantage.Cloud {
		dst = append(dst, `,"c":true`...)
	}
	if c.Config != "" {
		dst = append(dst, `,"cfg":`...)
		dst = appendString(dst, c.Config)
	}
	dst = append(dst, `,"st":`...)
	dst = strconv.AppendInt(dst, int64(c.Status), 10)
	if len(c.Requests) > 0 {
		dst = append(dst, `,"r":[`...)
		for i, q := range c.Requests {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			dst = appendString(dst, q.Host)
			dst = append(dst, ',')
			dst = appendString(dst, q.Path)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, int64(q.Status), 10)
			dst = append(dst, ',')
			dst = strconv.AppendInt(dst, int64(q.BytesRaw), 10)
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	if len(c.Cookies) > 0 {
		dst = append(dst, `,"ck":[`...)
		for i, ck := range c.Cookies {
			if i > 0 {
				dst = append(dst, ',')
			}
			// Escaping the three parts apart equals escaping them joined:
			// '|' is ASCII, so it can neither complete nor split a UTF-8
			// sequence next to it.
			dst = append(dst, '"')
			dst = appendEscaped(dst, ck.Domain)
			dst = append(dst, '|')
			dst = appendEscaped(dst, ck.Name)
			dst = append(dst, '|')
			dst = appendEscaped(dst, ck.Value)
			dst = append(dst, '"')
		}
		dst = append(dst, ']')
	}
	if len(c.Storage) > 0 {
		dst = append(dst, `,"sto":[`...)
		for i, sr := range c.Storage {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			dst = strconv.AppendInt(dst, int64(sr.Kind), 10)
			dst = append(dst, ',')
			dst = appendString(dst, sr.Origin)
			dst = append(dst, ',')
			dst = appendString(dst, sr.Key)
			dst = append(dst, ',')
			dst = strconv.AppendBool(dst, sr.Identifying)
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	if c.ScreenshotText != "" {
		dst = append(dst, `,"sh":`...)
		dst = appendString(dst, c.ScreenshotText)
	}
	if c.TimedOut {
		dst = append(dst, `,"to":true`...)
	}
	if c.Failed {
		dst = append(dst, `,"x":true`...)
	}
	if c.Error != "" {
		dst = append(dst, `,"e":`...)
		dst = appendString(dst, c.Error)
	}
	return append(dst, "}\n"...), nil
}

// encodedSize bounds c's line length when its strings need no
// escapes, so Encode allocates once: the keys and punctuation of every
// field, 20 bytes per integer, and the strings' own bytes.
func encodedSize(c *capture.Capture) int {
	n := 182 + len(c.SeedURL) + len(c.FinalURL) + len(c.FinalDomain) + len(c.Vantage.Name) +
		len(c.Config) + len(c.ScreenshotText) + len(c.Error)
	for _, q := range c.Requests {
		n += 50 + len(q.Host) + len(q.Path)
	}
	for _, ck := range c.Cookies {
		n += 5 + len(ck.Domain) + len(ck.Name) + len(ck.Value)
	}
	for _, sr := range c.Storage {
		n += 35 + len(sr.Origin) + len(sr.Key)
	}
	return n
}

func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendEscaped(dst, s)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// appendEscaped appends s as the inside of a JSON string, escaped as
// encoding/json's HTML-safe encoder escapes it.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// cursor walks one line in the canonical layout. ok turns false at the
// first byte that departs from it, after which every method is a no-op.
type cursor struct {
	line []byte
	i    int
	ok   bool
}

// decoder reads one line in the canonical layout; once its cursor is
// no longer ok the caller falls back to decodeJSON.
type decoder struct {
	cursor
	// strs holds the line's string values, unescaped, back to back;
	// each decoded string is a substring of it. It is sized to the line
	// up front — unescaping never lengthens a string — so it is one
	// allocation and never moves.
	strs strings.Builder
}

func (d *decoder) init(line []byte) {
	d.line, d.ok = line, true
	d.strs.Grow(len(line))
}

// has consumes s when the line continues with it — an optional key.
func (c *cursor) has(s string) bool {
	if c.ok && len(c.line)-c.i >= len(s) && string(c.line[c.i:c.i+len(s)]) == s {
		c.i += len(s)
		return true
	}
	return false
}

// lit consumes s, which the layout requires here.
func (c *cursor) lit(s string) {
	if !c.has(s) {
		c.ok = false
	}
}

// more consumes the ',' between two array elements, or reports the
// array's end without consuming its ']'.
func (c *cursor) more() bool {
	if c.ok && c.i < len(c.line) && c.line[c.i] == ',' {
		c.i++
		return true
	}
	return false
}

// maxDigits bounds the integers the decoder takes: float64 holds every
// integer up to 15 digits exactly, so json's float64 round trip of an
// array element cannot change them.
const maxDigits = 15

// int reads -?(0|[1-9][0-9]*) of at most maxDigits digits. A longer
// integer, a fraction or an exponent leaves a digit, '.', 'e' or 'E'
// where the layout wants ',', ']' or '}', which ends the fast path.
func (c *cursor) int() int64 {
	if !c.ok {
		return 0
	}
	i, neg := c.i, false
	if i < len(c.line) && c.line[i] == '-' {
		neg = true
		i++
	}
	start, end := i, min(i+maxDigits, len(c.line))
	if i < end && c.line[i] == '0' {
		end = i + 1 // a leading zero is the whole integer
	}
	var n int64
	for i < end && c.line[i] >= '0' && c.line[i] <= '9' {
		n = n*10 + int64(c.line[i]-'0')
		i++
	}
	if i == start {
		c.ok = false
		return 0
	}
	c.i = i
	if neg {
		return -n
	}
	return n
}

func (c *cursor) bool() bool {
	if c.has("true") {
		return true
	}
	c.lit("false")
	return false
}

// str reads a JSON string: escapes resolved, UTF-8 validated.
func (d *decoder) str() string {
	d.lit(`"`)
	if !d.ok {
		return ""
	}
	from := d.strs.Len()
	start := d.i
	for d.i < len(d.line) {
		b := d.line[d.i]
		switch {
		case b == '"':
			d.strs.Write(d.line[start:d.i])
			d.i++
			return d.strs.String()[from:]
		case b == '\\':
			d.strs.Write(d.line[start:d.i])
			if !d.escape() {
				d.ok = false
				return ""
			}
			start = d.i
		case b < 0x20:
			d.ok = false // json rejects a raw control byte
			return ""
		case b < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRune(d.line[d.i:])
			if r == utf8.RuneError && size == 1 {
				d.ok = false // json would substitute U+FFFD; leave that to it
				return ""
			}
			d.i += size
		}
	}
	d.ok = false
	return ""
}

// escape resolves the escape at d.i into d.strs. Surrogate \u escapes,
// which Encode never writes, are left to the fallback.
func (d *decoder) escape() bool {
	if d.i+1 >= len(d.line) {
		return false
	}
	c := d.line[d.i+1]
	d.i += 2
	switch c {
	case '"', '\\', '/':
		d.strs.WriteByte(c)
	case 'b':
		d.strs.WriteByte('\b')
	case 'f':
		d.strs.WriteByte('\f')
	case 'n':
		d.strs.WriteByte('\n')
	case 'r':
		d.strs.WriteByte('\r')
	case 't':
		d.strs.WriteByte('\t')
	case 'u':
		if d.i+4 > len(d.line) {
			return false
		}
		var r rune
		for _, h := range d.line[d.i : d.i+4] {
			switch {
			case h >= '0' && h <= '9':
				h -= '0'
			case h >= 'a' && h <= 'f':
				h -= 'a' - 10
			case h >= 'A' && h <= 'F':
				h -= 'A' - 10
			default:
				return false
			}
			r = r<<4 | rune(h)
		}
		if utf8.RuneLen(r) < 0 {
			return false
		}
		d.i += 4
		d.strs.WriteRune(r)
	default:
		return false
	}
	return true
}

// elems counts the elements of the JSON array starting at d.i, so each
// list is allocated once. It is a capacity hint: exact for a
// well-formed array, harmless for anything else.
func (d *decoder) elems() int {
	n, depth, inStr := 1, 0, false
	for i := d.i; i < len(d.line); i++ {
		c := d.line[i]
		if inStr {
			switch c {
			case '\\':
				i++
			case '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '[':
			depth++
		case ']':
			if depth--; depth == 0 {
				return n
			}
		case ',':
			if depth == 1 {
				n++
			}
		}
	}
	return n
}

// head reads the fields every record starts with, s f d t v.
func (d *decoder) head(c *capture.Capture) {
	d.lit(`{"s":`)
	c.SeedURL = d.str()
	d.lit(`,"f":`)
	c.FinalURL = d.str()
	d.lit(`,"d":`)
	c.FinalDomain = d.str()
	d.lit(`,"t":`)
	c.Day = simtime.Day(d.int())
	d.lit(`,"v":`)
	c.Vantage.Name = d.str()
}

// decodeFast decodes a line in the canonical layout, or returns nil for
// the fallback to take it.
func decodeFast(line []byte) *capture.Capture {
	var d decoder
	d.init(line)
	c := &capture.Capture{}
	d.head(c)
	d.lit(`,"g":`)
	c.Vantage.Geo = webworld.Geo(d.int())
	c.Vantage.Cloud = d.has(`,"c":true`)
	if d.has(`,"cfg":`) {
		c.Config = d.str()
	}
	d.lit(`,"st":`)
	c.Status = int(d.int())
	if d.has(`,"r":`) {
		c.Requests = make([]capture.Request, 0, d.elems())
		d.lit("[")
		for ok := true; ok && d.ok; ok = d.more() {
			var q capture.Request
			d.lit("[")
			q.Host = d.str()
			d.lit(",")
			q.Path = d.str()
			d.lit(",")
			q.Status = int(d.int())
			d.lit(",")
			q.BytesRaw = int(d.int())
			q.BytesCompressed = q.BytesRaw
			d.lit("]")
			c.Requests = append(c.Requests, q)
		}
		d.lit("]")
	}
	if d.has(`,"ck":`) {
		c.Cookies = make([]webworld.Cookie, 0, d.elems())
		d.lit("[")
		for ok := true; ok && d.ok; ok = d.more() {
			s := d.str()
			i := strings.IndexByte(s, '|')
			j := strings.IndexByte(s[i+1:], '|')
			if i < 0 || j < 0 {
				d.ok = false // the fallback reports the malformed cookie
				break
			}
			c.Cookies = append(c.Cookies, webworld.Cookie{Domain: s[:i], Name: s[i+1 : i+1+j], Value: s[i+2+j:]})
		}
		d.lit("]")
	}
	if d.has(`,"sto":`) {
		c.Storage = make([]webworld.StorageRecord, 0, d.elems())
		d.lit("[")
		for ok := true; ok && d.ok; ok = d.more() {
			var sr webworld.StorageRecord
			d.lit("[")
			sr.Kind = webworld.StorageKind(d.int())
			d.lit(",")
			sr.Origin = d.str()
			d.lit(",")
			sr.Key = d.str()
			d.lit(",")
			sr.Identifying = d.bool()
			d.lit("]")
			c.Storage = append(c.Storage, sr)
		}
		d.lit("]")
	}
	if d.has(`,"sh":`) {
		c.ScreenshotText = d.str()
	}
	c.TimedOut = d.has(`,"to":true`)
	c.Failed = d.has(`,"x":true`)
	if d.has(`,"e":`) {
		c.Error = d.str()
	}
	d.lit("}")
	if !d.ok || (d.i != len(line) && (d.i+1 != len(line) || line[d.i] != '\n')) {
		return nil
	}
	return c
}

// DecodeHead decodes only the head of a line — seed URL, final URL,
// final domain, day and vantage name, the fields before "g" — so a
// filter on them need not materialise requests, cookies or storage.
// Every other field of the result is zero. A line outside the
// canonical layout is decoded whole (and so validated whole).
func DecodeHead(line []byte) (*capture.Capture, error) {
	var d decoder
	d.init(line)
	c := &capture.Capture{}
	d.head(c)
	if d.ok {
		return c, nil
	}
	full, err := decodeJSON(line)
	if err != nil {
		return nil, err
	}
	return &capture.Capture{
		SeedURL: full.SeedURL, FinalURL: full.FinalURL, FinalDomain: full.FinalDomain,
		Day: full.Day, Vantage: capture.Vantage{Name: full.Vantage.Name},
	}, nil
}
