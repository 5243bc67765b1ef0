package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

func TestReadFrameRejectsUnknownType(t *testing.T) {
	frame := func(typ byte, body []byte) []byte {
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
		hdr[4] = typ
		return append(hdr[:], body...)
	}
	for _, typ := range []byte{0, byte(maxMsgType) + 1, 200, 255} {
		_, _, _, err := ReadFrame(bytes.NewReader(frame(typ, []byte("{}"))))
		if err == nil || !strings.Contains(err.Error(), "unknown message type") {
			t.Fatalf("type %d: err = %v, want unknown-type rejection", typ, err)
		}
	}
	// Every assigned type still reads.
	for typ := MsgQuery; typ <= maxMsgType; typ++ {
		got, body, n, err := ReadFrame(bytes.NewReader(frame(byte(typ), []byte("{}"))))
		if err != nil || got != typ || string(body) != "{}" || n != 7 {
			t.Fatalf("type %d: got (%v, %q, %d, %v)", typ, got, body, n, err)
		}
	}
}

func TestReadFrameRejectsOversizeLength(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], MaxFrame+1)
	hdr[4] = byte(MsgQuery)
	_, _, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v, want oversize rejection", err)
	}
}

func TestReadFrameTruncatedBodyNoOverAllocation(t *testing.T) {
	// A header claiming 8 MB followed by silence must fail without
	// ever holding more than one chunk of garbage.
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], 8<<20)
	hdr[4] = byte(MsgQuery)
	payload := append(hdr[:], bytes.Repeat([]byte{'x'}, 3*readChunk/2)...)
	_, _, _, err := ReadFrame(bytes.NewReader(payload))
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

func TestReadFrameLargeBodyRoundTrip(t *testing.T) {
	// A genuine multi-chunk body survives the incremental read intact.
	body := bytes.Repeat([]byte{0xab}, 3*readChunk+17)
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	hdr[4] = byte(MsgResult)
	typ, got, n, err := ReadFrame(bytes.NewReader(append(hdr[:], body...)))
	if err != nil || typ != MsgResult || n != 5+len(body) {
		t.Fatalf("(%v, _, %d, %v)", typ, n, err)
	}
	if !bytes.Equal(got, body) {
		t.Fatal("multi-chunk body corrupted in transit")
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader: it must
// never panic, never allocate beyond the claimed (bounded) size, and
// on success must report a type/length consistent with the input.
func FuzzReadFrame(f *testing.F) {
	seed := func(typ byte, body []byte) []byte {
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
		hdr[4] = typ
		return append(hdr[:], body...)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add(seed(byte(MsgQuery), []byte(`{"sql":"select 1"}`)))
	f.Add(seed(byte(MsgPong), []byte(`{}`)))
	f.Add(seed(0, []byte(`{}`)))
	f.Add(seed(255, []byte(`{}`)))
	f.Add(seed(byte(MsgResult), bytes.Repeat([]byte{'a'}, 2*readChunk)))
	f.Add(seed(byte(MsgResult), appendResult(nil, sampleResult())))
	var huge [5]byte
	binary.BigEndian.PutUint32(huge[:4], MaxFrame+1)
	f.Add(huge[:])

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, body, n, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if typ == 0 || typ > maxMsgType {
			t.Fatalf("accepted unknown type %d", typ)
		}
		if len(body) > MaxFrame {
			t.Fatalf("body of %d bytes exceeds MaxFrame", len(body))
		}
		if n != 5+len(body) || n > len(data) {
			t.Fatalf("consumed %d bytes of %d with body %d", n, len(data), len(body))
		}
		if want := binary.BigEndian.Uint32(data[:4]); int(want) != len(body) {
			t.Fatalf("length prefix %d, body %d", want, len(body))
		}
	})
}
