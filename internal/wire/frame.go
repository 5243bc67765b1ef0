// Package wire implements the federation's TCP protocol and the two
// daemon roles of the paper's prototype: database nodes (bydbd) that
// serve per-site sub-queries and object fetches, and the proxy
// (byproxyd) that collocates the mediator with a bypass-yield cache.
//
// Framing is length-prefixed: a 4-byte big-endian payload length, a
// 1-byte message type, then the payload. Result payloads — the data
// plane — use a compact binary encoding (see resultcodec.go); every
// other message is JSON. Result tuples are bounded
// (engine.Config.MaxResultRows), so frames stay small; the paper's
// gigabyte-scale flows are accounted logically (see the Proxy type).
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// MsgType identifies a frame's payload.
type MsgType uint8

// Protocol message types.
const (
	// MsgQuery carries SQL from client to proxy, or a sub-query from
	// proxy to a database node.
	MsgQuery MsgType = 1
	// MsgResult returns an execution result.
	MsgResult MsgType = 2
	// MsgError returns a failure.
	MsgError MsgType = 3
	// MsgFetch asks a database node for a whole object (a cache
	// load).
	MsgFetch MsgType = 4
	// MsgFetchAck acknowledges an object fetch with its logical size.
	MsgFetchAck MsgType = 5
	// MsgStats asks the proxy for its accounting.
	MsgStats MsgType = 6
	// MsgStatsResult returns the proxy accounting.
	MsgStatsResult MsgType = 7
	// MsgMetrics asks a daemon (proxy or database node) for its full
	// observability snapshot.
	MsgMetrics MsgType = 8
	// MsgMetricsResult returns the snapshot.
	MsgMetricsResult MsgType = 9
	// MsgDecisions asks the proxy for recent decision-ledger records,
	// optionally filtered by object, action, or trace id.
	MsgDecisions MsgType = 10
	// MsgDecisionsResult returns the matching ledger records.
	MsgDecisionsResult MsgType = 11
	// MsgPing is a health probe (proxy → node); half-open circuit
	// breakers use it to test a site before readmitting traffic.
	MsgPing MsgType = 12
	// MsgPong answers a ping.
	MsgPong MsgType = 13
	// MsgExemplars asks a daemon for its flight-recorder exemplars,
	// optionally filtered by outcome or minimum duration.
	MsgExemplars MsgType = 14
	// MsgExemplarsResult returns the matching exemplars.
	MsgExemplarsResult MsgType = 15

	// maxMsgType is the highest assigned message type; ReadFrame
	// rejects anything beyond it.
	maxMsgType = MsgExemplarsResult
)

// String names a message type for metric labels and diagnostics.
func (t MsgType) String() string {
	switch t {
	case MsgQuery:
		return "query"
	case MsgResult:
		return "result"
	case MsgError:
		return "error"
	case MsgFetch:
		return "fetch"
	case MsgFetchAck:
		return "fetch_ack"
	case MsgStats:
		return "stats"
	case MsgStatsResult:
		return "stats_result"
	case MsgMetrics:
		return "metrics"
	case MsgMetricsResult:
		return "metrics_result"
	case MsgDecisions:
		return "decisions"
	case MsgDecisionsResult:
		return "decisions_result"
	case MsgPing:
		return "ping"
	case MsgPong:
		return "pong"
	case MsgExemplars:
		return "exemplars"
	case MsgExemplarsResult:
		return "exemplars_result"
	default:
		return "unknown"
	}
}

// MaxFrame bounds accepted payloads (defense against corrupt length
// prefixes).
const MaxFrame = 16 << 20

// frameBuf is a reusable encode buffer: the buffer accumulates header
// and payload so a frame hits the socket in one Write, and the encoder
// is bound to the buffer once so steady-state encoding reuses its
// scratch space instead of reallocating per frame. bin is the same for
// binary Result frames.
type frameBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
	bin []byte
}

// frameBufMaxCap bounds buffers returned to the pool; an occasional
// giant frame must not pin megabytes of scratch forever.
const frameBufMaxCap = 1 << 20

var framePool = sync.Pool{
	New: func() any {
		fb := &frameBuf{}
		fb.enc = json.NewEncoder(&fb.buf)
		return fb
	},
}

// WriteFrame writes one frame and returns the bytes put on the wire.
// A ResultMsg payload (value or pointer) is encoded in the binary
// Result layout, anything else as JSON. Encode buffers are pooled
// (≤ 1 allocation per frame steady-state — see BenchmarkWriteFrame)
// and each frame reaches w in a single Write.
func WriteFrame(w io.Writer, t MsgType, payload any) (int, error) {
	fb := framePool.Get().(*frameBuf)
	defer func() {
		if fb.buf.Cap() <= frameBufMaxCap && cap(fb.bin) <= frameBufMaxCap {
			framePool.Put(fb)
		}
	}()
	var hdr [5]byte // length+type placeholder, patched below
	var frame []byte
	switch m := payload.(type) {
	case *ResultMsg:
		if m == nil {
			return 0, fmt.Errorf("wire: marshal: nil result")
		}
		fb.bin = appendResult(append(fb.bin[:0], hdr[:]...), m)
		frame = fb.bin
	case ResultMsg:
		fb.bin = appendResult(append(fb.bin[:0], hdr[:]...), &m)
		frame = fb.bin
	default:
		fb.buf.Reset()
		fb.buf.Write(hdr[:])
		if err := fb.enc.Encode(payload); err != nil {
			return 0, fmt.Errorf("wire: marshal: %w", err)
		}
		frame = fb.buf.Bytes()
		frame = frame[:len(frame)-1] // Encode appends a trailing newline
	}
	body := len(frame) - len(hdr)
	if body > MaxFrame {
		return 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", body)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(body))
	frame[4] = byte(t)
	if _, err := w.Write(frame); err != nil {
		return 0, err
	}
	return len(frame), nil
}

// readChunk bounds each body allocation: a corrupt length prefix
// claiming megabytes that never arrive must not allocate megabytes up
// front. Bodies grow chunk by chunk as bytes actually appear.
const readChunk = 64 << 10

// ReadFrame reads one frame and returns its type, body, and total
// bytes consumed. Frames with an unassigned type byte or a length
// prefix beyond MaxFrame are rejected before the body is read — a
// corrupt or adversarial header cannot make the reader allocate or
// block for a payload that will never parse.
func ReadFrame(r io.Reader) (MsgType, []byte, int, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > MaxFrame {
		return 0, nil, 0, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	t := MsgType(hdr[4])
	if t == 0 || t > maxMsgType {
		return 0, nil, 0, fmt.Errorf("wire: unknown message type %d", hdr[4])
	}
	// Small frames (the common case) allocate once; larger claims grow
	// incrementally so a truncated body wastes at most one chunk.
	size := int(n)
	alloc := size
	if alloc > readChunk {
		alloc = readChunk
	}
	body := make([]byte, 0, alloc)
	for len(body) < size {
		next := len(body) + readChunk
		if next > size {
			next = size
		}
		if cap(body) < next {
			grown := make([]byte, len(body), next)
			copy(grown, body)
			body = grown
		}
		m, err := io.ReadFull(r, body[len(body):next])
		body = body[:len(body)+m]
		if err != nil {
			return 0, nil, 0, err
		}
	}
	return t, body, len(hdr) + size, nil
}

// Decode unmarshals a frame body: the binary Result layout into a
// *ResultMsg, JSON into anything else.
func Decode(body []byte, dst any) error {
	if m, ok := dst.(*ResultMsg); ok {
		return decodeResult(body, m)
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}
