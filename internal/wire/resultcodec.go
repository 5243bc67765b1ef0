package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Result bodies (MsgResult, proxy → client and node → proxy) use a
// compact binary encoding instead of JSON: they carry the tuple sample,
// and formatting and parsing floats as decimal text dominated the data
// plane. Every other message stays JSON.
//
// Layout, after a one-byte version (never '{', so a JSON body from an
// older peer is recognized and refused rather than misparsed):
//
//	Columns          list of string
//	Rows, Bytes      varint
//	Tuples           list of tuples; a tuple is uvarint(len+1), 0 for
//	                 nil, then len little-endian IEEE-754 float64 bits
//	Decisions        list of {Object, Site string; Yield varint;
//	                 Decision string; flags byte; Reason string}
//	Partial          byte, 0 or 1
//	SiteErrors       list of {Site, Error string; LostBytes varint}
//	TransportErrors  list of {Site, Error string; LostBytes varint}
//
// A list is uvarint(count+1) followed by its elements, with 0 encoding
// a nil list, so nil and empty slices survive a round trip; a string is
// uvarint(len) then its bytes.

// resultVersion is the leading byte of a binary Result body.
const resultVersion = 1

// Decision flag bits.
const (
	flagForced = 1 << iota
	flagFailed
)

// ErrResultEncoding reports a Result body this build cannot decode: a
// leading byte other than the binary version (a JSON body from an
// older peer starts with '{').
var ErrResultEncoding = errors.New("wire: unsupported result encoding")

// errResultCorrupt reports a binary Result body that is truncated,
// carries an impossible count, or has bytes left over.
var errResultCorrupt = errors.New("wire: corrupt result body")

// appendResult appends m's binary encoding to b.
func appendResult(b []byte, m *ResultMsg) []byte {
	b = append(b, resultVersion)
	b = appendCount(b, len(m.Columns), m.Columns == nil)
	for _, c := range m.Columns {
		b = appendString(b, c)
	}
	b = binary.AppendVarint(b, m.Rows)
	b = binary.AppendVarint(b, m.Bytes)
	b = appendCount(b, len(m.Tuples), m.Tuples == nil)
	for _, tup := range m.Tuples {
		b = appendCount(b, len(tup), tup == nil)
		for _, v := range tup {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	b = appendCount(b, len(m.Decisions), m.Decisions == nil)
	for i := range m.Decisions {
		d := &m.Decisions[i]
		b = appendString(b, d.Object)
		b = appendString(b, d.Site)
		b = binary.AppendVarint(b, d.Yield)
		b = appendString(b, d.Decision)
		var flags byte
		if d.Forced {
			flags |= flagForced
		}
		if d.Failed {
			flags |= flagFailed
		}
		b = append(b, flags)
		b = appendString(b, d.Reason)
	}
	partial := byte(0)
	if m.Partial {
		partial = 1
	}
	b = append(b, partial)
	b = appendSiteErrors(b, m.SiteErrors)
	return appendSiteErrors(b, m.TransportErrors)
}

func appendCount(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendSiteErrors(b []byte, es []SiteErrorMsg) []byte {
	b = appendCount(b, len(es), es == nil)
	for _, e := range es {
		b = appendString(b, e.Site)
		b = appendString(b, e.Error)
		b = binary.AppendVarint(b, e.LostBytes)
	}
	return b
}

// decodeResult decodes a binary Result body into m, replacing its
// contents. Every count is checked against the bytes remaining before
// anything is allocated, so a corrupt or hostile body cannot make the
// decoder allocate more than a small constant factor of its length.
func decodeResult(body []byte, m *ResultMsg) error {
	if len(body) == 0 {
		return fmt.Errorf("%w: empty body", ErrResultEncoding)
	}
	if body[0] != resultVersion {
		if body[0] == '{' {
			return fmt.Errorf("%w: JSON body (peer predates binary results)", ErrResultEncoding)
		}
		return fmt.Errorf("%w: version byte %#x", ErrResultEncoding, body[0])
	}
	r := resultReader{b: body[1:]}
	*m = ResultMsg{}
	if n, ok := r.count(1); ok {
		m.Columns = make([]string, n)
		for i := range m.Columns {
			m.Columns[i] = r.string()
		}
	}
	m.Rows = r.varint()
	m.Bytes = r.varint()
	m.Tuples = r.tuples()
	if n, ok := r.count(6); ok {
		m.Decisions = make([]DecisionMsg, n)
		for i := range m.Decisions {
			d := &m.Decisions[i]
			d.Object = r.string()
			d.Site = r.string()
			d.Yield = r.varint()
			d.Decision = verdict(r.bytes())
			flags := r.byte()
			d.Forced = flags&flagForced != 0
			d.Failed = flags&flagFailed != 0
			d.Reason = r.string()
		}
	}
	switch r.byte() {
	case 0:
	case 1:
		m.Partial = true
	default:
		r.fail()
	}
	m.SiteErrors = r.siteErrors()
	m.TransportErrors = r.siteErrors()
	if r.err == nil && len(r.b) > 0 {
		r.fail()
	}
	if r.err != nil {
		*m = ResultMsg{}
		return r.err
	}
	return nil
}

// verdict returns a decision name, sharing the common ones instead of
// allocating a string per decision.
func verdict(b []byte) string {
	for _, v := range [...]string{"hit", "bypass", "load", "failed"} {
		if string(b) == v {
			return v
		}
	}
	return string(b)
}

// resultReader consumes a binary Result body. The first error sticks:
// later reads return zero values, so decoding runs straight through
// and checks once at the end.
type resultReader struct {
	b   []byte
	err error
}

func (r *resultReader) fail() {
	if r.err == nil {
		r.err = errResultCorrupt
	}
	r.b = nil
}

func (r *resultReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *resultReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *resultReader) byte() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// bytes reads a length-prefixed byte string, aliasing the body.
func (r *resultReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *resultReader) string() string { return string(r.bytes()) }

// count reads a list header. ok is false for a nil list (and on
// error); a list claiming more elements than the remaining bytes hold
// at minElem bytes apiece is corrupt.
func (r *resultReader) count(minElem int) (n int, ok bool) {
	c := r.uvarint()
	if c == 0 || r.err != nil {
		return 0, false
	}
	c--
	if c > uint64(len(r.b)/minElem) {
		r.fail()
		return 0, false
	}
	return int(c), true
}

// tuples reads the tuple list into one shared backing array: a first
// pass over the headers sizes it, a second fills it.
func (r *resultReader) tuples() [][]float64 {
	n, ok := r.count(1)
	if !ok {
		return nil
	}
	// Pass 1: validate each tuple header against the bytes left and
	// total the values.
	scan := resultReader{b: r.b}
	total := 0
	for i := 0; i < n; i++ {
		if k, isSet := scan.count(8); isSet {
			total += k
			scan.b = scan.b[8*k:]
		}
		if scan.err != nil {
			r.fail()
			return nil
		}
	}
	backing := make([]float64, total)
	out := make([][]float64, n)
	for i := range out {
		k, isSet := r.count(8)
		if !isSet {
			continue
		}
		tup := backing[:k:k]
		backing = backing[k:]
		for j := range tup {
			tup[j] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*j:]))
		}
		r.b = r.b[8*k:]
		out[i] = tup
	}
	return out
}

func (r *resultReader) siteErrors() []SiteErrorMsg {
	n, ok := r.count(3)
	if !ok {
		return nil
	}
	out := make([]SiteErrorMsg, n)
	for i := range out {
		out[i] = SiteErrorMsg{Site: r.string(), Error: r.string(), LostBytes: r.varint()}
	}
	return out
}
