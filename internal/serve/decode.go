package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"leaveintime/internal/metrics"
)

// bodyBufSize is the size of the buffers decode reads small bodies into.
// A SETUP body is under 100 bytes.
const bodyBufSize = 512

var bodyBufs = sync.Pool{New: func() any { return new([bodyBufSize]byte) }}

// decode reads a JSON body strictly (unknown fields, and anything after
// the one document, are malformed — the wire schema is versioned, not
// lax) into v, which it writes only on success.
//
// A body whose declared length fits one pooled buffer and MaxBody is
// read whole and, when it has the hot shape (see flat), decoded with no
// json.Decoder. Every other body goes to a Decoder that reads exactly
// the bytes it would have read from the request alone: what was read,
// then the rest of the body. So every error text and status is the
// Decoder's, and no body is read further than the Decoder reads it: a
// MaxBody trip, which makes net/http close the connection, happens
// exactly where it did without the buffer. The Decoder fills a copy of
// *v, never v, so a caller's request value stays on its stack.
func decode[T any](d *Daemon, w http.ResponseWriter, r *http.Request, v *T) bool {
	body := io.Reader(r.Body)
	if n := r.ContentLength; n >= 0 && n <= bodyBufSize && n <= d.opts.MaxBody {
		buf := bodyBufs.Get().(*[bodyBufSize]byte)
		defer bodyBufs.Put(buf)
		read, err := io.ReadFull(r.Body, buf[:n])
		if err == nil && flat(buf[:n], v) {
			return true
		}
		body = io.MultiReader(bytes.NewReader(buf[:read]), r.Body)
	}
	dst := *v
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&dst)
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
	*v = dst
	return true
}

// flat decodes body into v, a *SetupRequest or *ReleaseRequest, when
// body has the hot shape: one object whose keys are v's exact lower-case
// tags (no escapes, no case folding) and whose values are JSON numbers
// that parse as encoding/json parses them for the field. It reports
// whether it did, and writes v only then; the Decoder answers every
// other body, and every body of another type.
func flat(body []byte, v any) bool {
	switch v := v.(type) {
	case *SetupRequest:
		var req SetupRequest
		ok := members(body, func(key, num []byte) bool {
			switch string(key) {
			case "id":
				return parseInt(num, &req.ID)
			case "rate":
				return parseFloat(num, &req.Rate)
			case "lmax":
				return parseFloat(num, &req.LMax)
			case "lmin":
				return parseFloat(num, &req.LMin)
			case "class":
				return parseInt(num, &req.Class)
			case "eps":
				return parseFloat(num, &req.Eps)
			}
			return false
		})
		if ok {
			*v = req
		}
		return ok
	case *ReleaseRequest:
		var req ReleaseRequest
		ok := members(body, func(key, num []byte) bool {
			return string(key) == "id" && parseInt(num, &req.ID)
		})
		if ok {
			*v = req
		}
		return ok
	}
	return false
}

// members walks body as one JSON object of number members, surrounded
// by whitespace, handing set each key's raw bytes and its number. It
// reports false at the first byte outside that shape or the first
// member set refuses. A repeated key is set again, so the last one
// wins, as in encoding/json.
func members(body []byte, set func(key, num []byte) bool) bool {
	i := space(body, 0)
	if i == len(body) || body[i] != '{' {
		return false
	}
	i = space(body, i+1)
	if i < len(body) && body[i] == '}' {
		return space(body, i+1) == len(body)
	}
	for {
		if i == len(body) || body[i] != '"' {
			return false
		}
		end := bytes.IndexByte(body[i+1:], '"')
		if end < 0 {
			return false
		}
		key := body[i+1 : i+1+end]
		i = space(body, i+2+end)
		if i == len(body) || body[i] != ':' {
			return false
		}
		i = space(body, i+1)
		j := number(body, i)
		if j < 0 || !set(key, body[i:j]) {
			return false
		}
		i = space(body, j)
		if i == len(body) {
			return false
		}
		switch body[i] {
		case ',':
			i = space(body, i+1)
		case '}':
			return space(body, i+1) == len(body)
		default:
			return false
		}
	}
}

// space returns the index of the first byte at or after i that is not
// JSON whitespace.
func space(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// number returns the end of the JSON number that starts at b[i], or -1
// if none does: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func number(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// parseInt and parseFloat make encoding/json's calls for an int and a
// float64 field, and refuse what it refuses.
func parseInt(num []byte, dst *int) bool {
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil || int64(int(n)) != n {
		return false
	}
	*dst = int(n)
	return true
}

func parseFloat(num []byte, dst *float64) bool {
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}
