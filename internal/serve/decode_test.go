package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"leaveintime/internal/metrics"
)

// strictDecode is the reference decode: one json.Decoder over the whole
// body that refuses unknown fields and anything after the document.
// decode hands every body outside the hot shape to exactly this.
func strictDecode(d *Daemon, w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errors.New("data after the JSON document")
		}
	}
	if err != nil {
		d.ar.AtomicInc(metrics.HServeMalformed)
		httpError(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return false
	}
	return true
}

// decodeOutcome is what one decode of a body shows: its verdict, the
// request it filled, the answer it wrote, and whether it read past
// MaxBody (on a real server, that closes the connection).
type decodeOutcome struct {
	ok      bool
	fields  string
	code    int
	answer  string
	tripped bool
}

// decodeWith runs one decoder on body inside wrap's MaxBody bound. The
// body arrives in pieces, as from a network, so a decoder that stops at
// the first bad byte has not read the rest.
func decodeWith[T any](d *Daemon, body []byte, decoder func(http.ResponseWriter, *http.Request, *T) bool) decodeOutcome {
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/", iotest.HalfReader(bytes.NewReader(body)))
	r.ContentLength = int64(len(body))
	r.Body = http.MaxBytesReader(rec, r.Body, d.opts.MaxBody)
	var v T
	ok := decoder(rec, r, &v)
	// A tripped MaxBytesReader answers even an empty read with its error.
	_, err := r.Body.Read(nil)
	var tooLarge *http.MaxBytesError
	// %#v prints every float64 in the shortest form that reads back to
	// its bits, -0 included.
	return decodeOutcome{ok, fmt.Sprintf("%#v", v), rec.Code, rec.Body.String(), errors.As(err, &tooLarge)}
}

// decodeAgrees fails t unless decode and strictDecode see body alike.
func decodeAgrees[T any](t *testing.T, d *Daemon, body []byte) {
	t.Helper()
	got := decodeWith(d, body, func(w http.ResponseWriter, r *http.Request, v *T) bool { return decode(d, w, r, v) })
	want := decodeWith(d, body, func(w http.ResponseWriter, r *http.Request, v *T) bool { return strictDecode(d, w, r, v) })
	if !want.ok {
		want.fields = got.fields // a refused body's request is not read
	}
	if got != want {
		t.Fatalf("MaxBody %d, body %q into %T:\n decode %+v\n  strict %+v", d.opts.MaxBody, body, *new(T), got, want)
	}
}

// goldenBodies are the request bodies of testdata/wire.golden.
func goldenBodies(tb testing.TB) [][]byte {
	golden, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		tb.Fatal(err)
	}
	var bodies [][]byte
	for _, line := range strings.Split(string(golden), "\n") {
		if quoted, ok := strings.CutPrefix(line, "> "); ok {
			body, err := strconv.Unquote(quoted)
			if err != nil {
				tb.Fatal(err)
			}
			bodies = append(bodies, []byte(body))
		}
	}
	return bodies
}

// FuzzDecodeAgrees holds decode to the Decoder path on arbitrary bytes
// as a SETUP and as a RELEASE body: the same verdict, the same request
// fields bit for bit when accepted, and the same status and error text
// when refused, and a MaxBody trip only where the Decoder trips it. A
// MaxBody of 40 puts most bodies over the bound.
func FuzzDecodeAgrees(f *testing.F) {
	for _, body := range goldenBodies(f) {
		f.Add(body)
	}
	// Bytes that are white space elsewhere, but not in JSON.
	for _, ws := range []string{"\f", "\v", "\x00", "\u00a0", "\u2028"} {
		f.Add([]byte(`{"id":1,` + ws + `"rate":32000,"lmax":424}`))
	}
	// Refused in its first bytes, and longer than a MaxBody of 40.
	f.Add([]byte(`{"id":01,"rate":32000,"lmax":424,"lmin":100,"class":1,"eps":0.001}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, maxBody := range []int64{0, 40} {
			d := New(Options{MaxBody: maxBody})
			decodeAgrees[SetupRequest](t, d, body)
			decodeAgrees[ReleaseRequest](t, d, body)
		}
	})
}
