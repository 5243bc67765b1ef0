package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// sampleResult is a proxy reply exercising every field.
func sampleResult() *ResultMsg {
	return &ResultMsg{
		Columns: []string{"photoobj.ra", "photoobj.dec", "count(*)"},
		Rows:    880000,
		Bytes:   -3, // signed varints survive
		Tuples:  [][]float64{{1.5, -2.25, math.Inf(1)}, {math.Inf(-1), 0, math.Copysign(0, -1)}, nil, {}},
		Decisions: []DecisionMsg{
			{Object: "edr/photoobj.ra", Site: "photo.sdss.org", Yield: 4096, Decision: "bypass"},
			{Object: "edr/specobj", Site: "spec.sdss.org", Yield: 12, Decision: "hit", Forced: true, Reason: "forced-cache: breaker open"},
			{Object: "edr/field", Site: "meta.sdss.org", Yield: 7, Decision: "failed", Failed: true, Reason: "failed-leg: breaker open"},
		},
		Partial:         true,
		SiteErrors:      []SiteErrorMsg{{Site: "meta.sdss.org", Error: "breaker open", LostBytes: 7}},
		TransportErrors: []SiteErrorMsg{{Site: "photo.sdss.org", Error: "i/o timeout"}},
	}
}

// sameResult compares two results field by field, tuples by their
// IEEE-754 bits (so -0, ±Inf and NaN count) and nil apart from empty.
func sameResult(a, b *ResultMsg) bool {
	if len(a.Tuples) != len(b.Tuples) || (a.Tuples == nil) != (b.Tuples == nil) {
		return false
	}
	for i := range a.Tuples {
		ta, tb := a.Tuples[i], b.Tuples[i]
		if len(ta) != len(tb) || (ta == nil) != (tb == nil) {
			return false
		}
		for j := range ta {
			if math.Float64bits(ta[j]) != math.Float64bits(tb[j]) {
				return false
			}
		}
	}
	ca, cb := *a, *b
	ca.Tuples, cb.Tuples = nil, nil
	return reflect.DeepEqual(ca, cb)
}

// randomResult draws a ResultMsg in which every slice is independently
// nil, empty or populated, every optional field is independently set,
// and tuple values include ±Inf, -0 and NaN.
func randomResult(rng *rand.Rand) *ResultMsg {
	str := func() string {
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	// size returns -1 for a nil slice, else a length.
	size := func() int { return rng.Intn(6) - 1 }
	specials := []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	value := func() float64 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64() * 1e6
	}
	siteErrors := func() []SiteErrorMsg {
		n := size()
		if n < 0 {
			return nil
		}
		out := make([]SiteErrorMsg, n)
		for i := range out {
			out[i] = SiteErrorMsg{Site: str(), Error: str(), LostBytes: rng.Int63n(1<<40) - 1<<39}
		}
		return out
	}
	m := &ResultMsg{Rows: rng.Int63() - rng.Int63(), Bytes: rng.Int63(), Partial: rng.Intn(2) == 0}
	if n := size(); n >= 0 {
		m.Columns = make([]string, n)
		for i := range m.Columns {
			m.Columns[i] = str()
		}
	}
	if n := size(); n >= 0 {
		m.Tuples = make([][]float64, n)
		for i := range m.Tuples {
			if k := size(); k >= 0 {
				m.Tuples[i] = make([]float64, k)
				for j := range m.Tuples[i] {
					m.Tuples[i][j] = value()
				}
			}
		}
	}
	if n := size(); n >= 0 {
		m.Decisions = make([]DecisionMsg, n)
		verdicts := []string{"hit", "bypass", "load", "failed", ""}
		for i := range m.Decisions {
			m.Decisions[i] = DecisionMsg{
				Object: str(), Site: str(), Yield: rng.Int63() - rng.Int63(),
				Decision: verdicts[rng.Intn(len(verdicts))],
				Forced:   rng.Intn(2) == 0, Failed: rng.Intn(2) == 0, Reason: str(),
			}
		}
	}
	m.SiteErrors = siteErrors()
	m.TransportErrors = siteErrors()
	return m
}

// TestResultCodecRoundTrip: random results survive WriteFrame →
// ReadFrame → Decode exactly, whether sent by pointer or by value.
func TestResultCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []*ResultMsg{sampleResult(), {}, {Columns: []string{}, Tuples: [][]float64{}, Decisions: []DecisionMsg{}, SiteErrors: []SiteErrorMsg{}, TransportErrors: []SiteErrorMsg{}}}
	for i := 0; i < 2000; i++ {
		cases = append(cases, randomResult(rng))
	}
	for i, want := range cases {
		var buf bytes.Buffer
		var payload any = want
		if i%2 == 1 {
			payload = *want
		}
		n, err := WriteFrame(&buf, MsgResult, payload)
		if err != nil {
			t.Fatalf("case %d: write: %v", i, err)
		}
		typ, body, rn, err := ReadFrame(&buf)
		if err != nil || typ != MsgResult || rn != n {
			t.Fatalf("case %d: read (%v, %d of %d, %v)", i, typ, rn, n, err)
		}
		got := &ResultMsg{Rows: 99, Columns: []string{"stale"}} // Decode replaces, not merges
		if err := Decode(body, got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !sameResult(got, want) {
			t.Fatalf("case %d: round trip\n got  %#v\n want %#v", i, got, want)
		}
	}
}

// TestDecodeRejectsJSONResult: a JSON Result body — what a peer built
// before the binary encoding sends — fails with ErrResultEncoding
// instead of decoding into a plausible-looking result.
func TestDecodeRejectsJSONResult(t *testing.T) {
	body, err := json.Marshal(&ResultMsg{Columns: []string{"photoobj.ra"}, Rows: 5, Bytes: 40})
	if err != nil {
		t.Fatal(err)
	}
	var got ResultMsg
	err = Decode(body, &got)
	if !errors.Is(err, ErrResultEncoding) {
		t.Fatalf("Decode(JSON body) = %v, want ErrResultEncoding", err)
	}
	if !reflect.DeepEqual(got, ResultMsg{}) {
		t.Fatalf("rejected body left %+v behind", got)
	}
	for _, body := range [][]byte{nil, {0}, {resultVersion + 1}} {
		if err := Decode(body, &got); !errors.Is(err, ErrResultEncoding) {
			t.Fatalf("Decode(%v) = %v, want ErrResultEncoding", body, err)
		}
	}
}

// TestDecodeResultRejectsDamage: every proper prefix of a valid body,
// and the body with trailing garbage, is rejected.
func TestDecodeResultRejectsDamage(t *testing.T) {
	body := appendResult(nil, sampleResult())
	var got ResultMsg
	for n := 1; n < len(body); n++ {
		if err := Decode(body[:n], &got); err == nil {
			t.Fatalf("truncated body (%d of %d bytes) decoded", n, len(body))
		}
	}
	if err := Decode(append(body[:len(body):len(body)], 0), &got); err == nil {
		t.Fatal("body with a trailing byte decoded")
	}
}

// FuzzDecodeResult feeds arbitrary bodies to the Result decoder: it
// must never panic, must allocate no more than a small constant factor
// of the body (every count is checked against the bytes remaining),
// and whatever it accepts must survive a re-encode unchanged.
func FuzzDecodeResult(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(`{"columns":["x"],"rows":1}`))
	f.Add(appendResult(nil, sampleResult()))
	f.Add(appendResult(nil, &ResultMsg{}))
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		f.Add(appendResult(nil, randomResult(rng)))
	}
	// Hostile counts: a tuple list and a tuple claiming 2^40 elements.
	f.Add([]byte{resultVersion, 0, 0, 0, 0x81, 0x80, 0x80, 0x80, 0x80, 0x20})
	f.Add([]byte{resultVersion, 0, 0, 0, 2, 0x81, 0x80, 0x80, 0x80, 0x80, 0x20})

	f.Fuzz(func(t *testing.T, body []byte) {
		var m ResultMsg
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := Decode(body, &m)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(64*len(body)+64<<10) {
			t.Fatalf("decoding %d bytes allocated %d", len(body), alloc)
		}
		if err != nil {
			return
		}
		var again ResultMsg
		if err := Decode(appendResult(nil, &m), &again); err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if !sameResult(&again, &m) {
			t.Fatalf("re-encode changed the result:\n %#v\n %#v", &m, &again)
		}
	})
}
