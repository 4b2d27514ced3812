package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a value may open at most this
// many arrays and objects around any point.
const maxDepth = 10000

// decoder decodes the first JSON value of data into a File in one pass. It
// accepts exactly what json.Decoder.Decode accepts into a File and yields
// the same File (FuzzReadJSONAgreement pins the agreement):
//
//   - keys match a field's name exactly first, then under bytes.EqualFold;
//   - unknown keys are skipped, but their values are still syntax-checked;
//   - null resets a slice to nil and leaves every other field unchanged;
//   - a repeated key decodes again in place, over the first value;
//   - int fields take only integer literals that fit;
//   - strings are unquoted as encoding/json unquotes them;
//   - nesting deeper than maxDepth is rejected;
//   - bytes after the first value are ignored.
//
// encoding/json records a type mismatch and goes on decoding, but reports
// it at the end all the same, so the decoder stops at the first error of
// either kind.
type decoder struct {
	data  []byte
	pos   int
	depth int
}

// decodeJSON decodes a File from the first JSON value in data. Empty input
// fails with io.EOF and input that ends inside the value with
// io.ErrUnexpectedEOF, as with json.Decoder.
func decodeJSON(data []byte) (*File, error) {
	d := &decoder{data: data}
	d.space()
	if d.pos == len(d.data) {
		return nil, io.EOF
	}
	var f File
	if err := d.structure(func(key []byte) error {
		switch field(key, "version", "counts", "messages", "intervals", "times_ns") {
		case "version":
			return d.int(&f.Version)
		case "counts":
			return slice(d, &f.Counts, (*decoder).int)
		case "messages":
			return slice(d, &f.Messages, (*decoder).message)
		case "intervals":
			return slice(d, &f.Intervals, (*decoder).interval)
		case "times_ns":
			return slice(d, &f.TimesNS, func(d *decoder, row *[]int64) error {
				return slice(d, row, (*decoder).int64)
			})
		}
		return d.skip()
	}); err != nil {
		return nil, err
	}
	return &f, nil
}

func (d *decoder) message(m *MessageRec) error {
	return d.structure(func(key []byte) error {
		switch field(key, "from", "to") {
		case "from":
			return d.event(&m.From)
		case "to":
			return d.event(&m.To)
		}
		return d.skip()
	})
}

func (d *decoder) event(e *EventRec) error {
	return d.structure(func(key []byte) error {
		switch field(key, "proc", "pos") {
		case "proc":
			return d.int(&e.Proc)
		case "pos":
			return d.int(&e.Pos)
		}
		return d.skip()
	})
}

func (d *decoder) interval(rec *IntervalRec) error {
	return d.structure(func(key []byte) error {
		switch field(key, "name", "events") {
		case "name":
			if d.peek() == 'n' {
				return d.literal("null")
			}
			s, err := d.str()
			if err == nil {
				rec.Name = string(s)
			}
			return err
		case "events":
			return slice(d, &rec.Events, (*decoder).event)
		}
		return d.skip()
	})
}

// field returns the name in names that key selects, an exact match first
// and then a match under bytes.EqualFold, or "" for an unknown key.
func field(key []byte, names ...string) string {
	for _, name := range names {
		if string(key) == name {
			return name
		}
	}
	for _, name := range names {
		if bytes.EqualFold(key, []byte(name)) {
			return name
		}
	}
	return ""
}

// structure decodes an object into a struct through field, which is called
// with each unquoted key and must consume the key's value. null leaves the
// struct unchanged.
func (d *decoder) structure(field func(key []byte) error) error {
	switch d.peek() {
	case '{':
		return d.object(field)
	case 'n':
		return d.literal("null")
	}
	return d.fail("object")
}

// slice decodes an array into *s in place, as encoding/json does: element
// i is decoded over what the backing array holds there while i is below
// the old capacity, the slice ends at the array's length, an empty array
// leaves a non-nil empty slice and null leaves nil.
func slice[T any](d *decoder, s *[]T, elem func(*decoder, *T) error) error {
	switch d.peek() {
	case 'n':
		*s = nil
		return d.literal("null")
	case '[':
	default:
		return d.fail("array")
	}
	v, i := *s, 0
	if err := d.array(func() error {
		switch {
		case i < len(v):
		case i < cap(v):
			v = v[:i+1]
		default:
			var zero T
			v = append(v, zero)
		}
		i++
		return elem(d, &v[i-1])
	}); err != nil {
		return err
	}
	if i == 0 {
		v = make([]T, 0)
	}
	*s = v[:i]
	return nil
}

func (d *decoder) int(dst *int) error {
	n, ok, err := d.integer(strconv.IntSize)
	if ok {
		*dst = int(n)
	}
	return err
}

func (d *decoder) int64(dst *int64) error {
	n, ok, err := d.integer(64)
	if ok {
		*dst = n
	}
	return err
}

// integer decodes an integer literal that fits in a signed integer of the
// given bit size; ok is false for null.
func (d *decoder) integer(bits int) (n int64, ok bool, err error) {
	if c := d.peek(); c == 'n' {
		return 0, false, d.literal("null")
	} else if c != '-' && (c < '0' || c > '9') {
		return 0, false, d.fail("integer")
	}
	start := d.pos
	integral, err := d.number()
	if err != nil {
		return 0, false, err
	}
	lit := d.data[start:d.pos]
	if !integral {
		return 0, false, fmt.Errorf("offset %d: want integer, found %s", start, lit)
	}
	digits := lit
	if lit[0] == '-' {
		digits = lit[1:]
	}
	if bits < 64 || len(digits) > 18 { // 18 decimal digits always fit in int64
		n, err := strconv.ParseInt(string(lit), 10, bits)
		if err != nil {
			return 0, false, fmt.Errorf("offset %d: %w", start, err)
		}
		return n, true, nil
	}
	for _, c := range digits {
		n = n*10 + int64(c-'0')
	}
	if lit[0] == '-' {
		n = -n
	}
	return n, true, nil
}

// str decodes a string literal, unquoted as encoding/json unquotes it.
func (d *decoder) str() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.fail("string")
	}
	start := d.pos
	plain, err := d.scanString()
	if err != nil {
		return nil, err
	}
	lit := d.data[start:d.pos]
	if plain || utf8.Valid(lit) && bytes.IndexByte(lit, '\\') < 0 {
		return lit[1 : len(lit)-1], nil
	}
	// Escapes and invalid UTF-8 are rare: let encoding/json resolve them,
	// so surrogates and replacement characters come out exactly as it
	// produces them.
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// scanString consumes a string literal, checking its syntax; plain reports
// that it holds only ASCII and no escapes.
func (d *decoder) scanString() (plain bool, err error) {
	d.pos++ // the opening quote
	plain = true
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return plain, nil
		case c == '\\':
			plain = false
			d.pos++
			if d.pos == len(d.data) {
				return false, io.ErrUnexpectedEOF
			}
			switch d.data[d.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for k := 0; k < 4; k++ {
					if d.pos == len(d.data) || !isHex(d.data[d.pos]) {
						return false, d.fail("hexadecimal digit")
					}
					d.pos++
				}
			default:
				return false, d.fail("escape character")
			}
		case c < ' ':
			return false, d.fail("string character")
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			d.pos++
		}
	}
	return false, io.ErrUnexpectedEOF
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number consumes a number literal, checking its syntax; integral reports
// that it has neither a fraction nor an exponent.
func (d *decoder) number() (integral bool, err error) {
	if d.data[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.data) && d.data[d.pos] == '0':
		d.pos++
	case d.digits() == 0:
		return false, d.fail("digit")
	}
	integral = true
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if d.digits() == 0 {
			return false, d.fail("digit")
		}
		integral = false
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if d.digits() == 0 {
			return false, d.fail("digit")
		}
		integral = false
	}
	return integral, nil
}

// digits consumes a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos - start
}

// skip consumes one value of any type, checking its syntax.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		_, err := d.scanString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.fail("value")
}

// object consumes an object, calling field with each unquoted key; field
// must consume the key's value.
func (d *decoder) object(field func(key []byte) error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.close()
		return nil
	}
	for {
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.fail("':' after object key")
		}
		d.pos++
		if err := field(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.close()
			return nil
		default:
			return d.fail("',' or '}' after object value")
		}
	}
}

// array consumes an array, calling elem once per element; elem must
// consume the element.
func (d *decoder) array(elem func() error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.close()
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.close()
			return nil
		default:
			return d.fail("',' or ']' after array element")
		}
	}
}

// open consumes the '[' or '{' at the current position.
func (d *decoder) open() error {
	if d.depth == maxDepth {
		return fmt.Errorf("offset %d: exceeded max depth %d", d.pos, maxDepth)
	}
	d.depth++
	d.pos++
	return nil
}

// close consumes the ']' or '}' at the current position.
func (d *decoder) close() {
	d.depth--
	d.pos++
}

// literal consumes the literal lit (true, false or null).
func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.pos == len(d.data) || d.data[d.pos] != lit[i] {
			return d.fail(lit)
		}
		d.pos++
	}
	return nil
}

// space skips whitespace.
func (d *decoder) space() {
	i := d.pos
	for i < len(d.data) {
		if c := d.data[i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			break
		}
		i++
	}
	d.pos = i
}

// peek skips whitespace and returns the next byte, or 0 at the end of the
// input (0 never starts a token, so callers need no separate check).
func (d *decoder) peek() byte {
	d.space()
	if d.pos == len(d.data) {
		return 0
	}
	return d.data[d.pos]
}

// fail reports that the input does not hold what the decoder wants at the
// current position.
func (d *decoder) fail(want string) error {
	if d.pos >= len(d.data) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("offset %d: want %s, found %q", d.pos, want, d.data[d.pos])
}
