package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The wire codec of POST /solve and GET /jobs/{id}. Both directions
// are one pass over a pooled byte buffer, and both are pinned to
// encoding/json: a request body in the canonical shape decodes to the
// Request json.Decoder would produce, any other body goes through
// json.Decoder itself, and a Result encodes to exactly the bytes of
// json.Encoder with a two-space indent (DESIGN.md §13).

// maxPooledBuf bounds the buffers wirePool keeps: one oversized request
// must not pin its body for the life of the pool.
const maxPooledBuf = 4 << 20

// wirePool recycles request-body and reply buffers.
var wirePool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns an empty pooled buffer with room for at least n bytes.
func getBuf(n int) *[]byte {
	bp := wirePool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	*bp = (*bp)[:0]
	return bp
}

// putBuf returns bp to the pool unless it grew past maxPooledBuf.
func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		wirePool.Put(bp)
	}
}

// decodeRequest reads r's body once, under the maxRequestBytes cap,
// and decodes it with DecodeRequest. The buffer is presized from
// Content-Length, trusted only up to maxPooledBuf so that a false
// header cannot make the server allocate ahead of the bytes that
// arrive. A body the read cut short (too large, or the client went
// away) is decoded by json.Decoder over the bytes read followed by the
// read error, which is what decoding straight from the capped body
// does.
func decodeRequest(w http.ResponseWriter, r *http.Request) (Request, error) {
	bp := getBuf(int(min(max(r.ContentLength, 0), maxPooledBuf)) + 1)
	defer putBuf(bp)
	data, err := readBody(*bp, http.MaxBytesReader(w, r.Body, maxRequestBytes))
	*bp = data
	if err != nil {
		return referenceDecode(io.MultiReader(bytes.NewReader(data), errReader{err}))
	}
	return DecodeRequest(data)
}

// readBody appends everything rd yields to buf, growing it only when
// full.
func readBody(buf []byte, rd io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// errReader replays a read error after the bytes that preceded it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// DecodeRequest decodes a POST /solve body. The canonical shape — one
// object of known exact-case keys in any order, each at most once, with
// escape-free ASCII strings, integer literals of up to 18 digits, a
// bool "async" and an integer "weights" array — is parsed in a single
// pass. Any other body is decoded by json.Decoder with
// DisallowUnknownFields, the reference both paths agree with, and the
// only source of error text.
func DecodeRequest(body []byte) (Request, error) {
	var req Request
	if parseCanonical(body, &req) {
		return req, nil
	}
	return referenceDecode(bytes.NewReader(body))
}

// referenceDecode is the encoding/json decode of a request body.
func referenceDecode(rd io.Reader) (Request, error) {
	var req Request
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// wireScanner walks a request body for parseCanonical.
type wireScanner struct {
	b []byte
	i int
}

// skipSpace returns the index of the first non-whitespace byte of b at
// or after i.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// next skips whitespace and consumes c if it comes next.
func (s *wireScanner) next(c byte) bool {
	s.i = skipSpace(s.b, s.i)
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes an escape-free ASCII string and returns its contents.
func (s *wireScanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// int consumes an integer literal.
func (s *wireScanner) int() (int64, bool) {
	v, i, ok := scanInt(s.b, skipSpace(s.b, s.i))
	if ok {
		s.i = i
	}
	return v, ok
}

// scanInt parses the integer literal at b[i:] and returns it with the
// index just past it. It takes at most 18 digits, which cannot overflow
// int64; longer literals, leading zeros, fractions and exponents are
// left to the reference decoder.
func scanInt(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int64(d)
	}
	if n := i - start; n == 0 || n > 18 || n > 1 && b[start] == '0' {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// weights consumes an integer array into a slice sized by counting its
// commas first. The count is clamped to what the array's bytes can hold
// (each element takes at least two), so a hostile body cannot allocate
// more than a valid one of its length.
func (s *wireScanner) weights() ([]int64, bool) {
	if !s.next('[') {
		return nil, false
	}
	b, i := s.b, s.i
	n := 0
	if end := bytes.IndexByte(b[i:], ']'); end >= 0 {
		n = min(bytes.Count(b[i:i+end], []byte{','})+1, (end+1)/2)
	}
	w := make([]int64, 0, n)
	if s.next(']') {
		return w, true
	}
	for {
		v, j, ok := scanInt(b, skipSpace(b, i))
		if !ok {
			return nil, false
		}
		w = append(w, v)
		switch i = skipSpace(b, j); {
		case i < len(b) && b[i] == ',':
			i++
		case i < len(b) && b[i] == ']':
			s.i = i + 1
			return w, true
		default:
			return nil, false
		}
	}
}

// literal consumes the bare word lit.
func (s *wireScanner) literal(lit string) bool {
	s.i = skipSpace(s.b, s.i)
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// parseCanonical fills req from a body in the canonical shape and
// reports whether it was one. On false req is partly filled and the
// body must go to the reference decoder.
func parseCanonical(b []byte, req *Request) bool {
	s := wireScanner{b: b}
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return s.rest()
	}
	var seen uint16
	for {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return false
		}
		var bit uint16
		switch string(key) {
		case "tenant":
			bit, ok = 1<<0, s.strField(&req.Tenant)
		case "alg":
			bit, ok = 1<<1, s.strField(&req.Alg)
		case "x":
			bit, ok = 1<<2, s.intField(&req.X)
		case "y":
			bit, ok = 1<<3, s.intField(&req.Y)
		case "z":
			bit, ok = 1<<4, s.intField(&req.Z)
		case "weights":
			bit = 1 << 5
			req.Weights, ok = s.weights()
		case "instance":
			bit, ok = 1<<6, s.strField(&req.Instance)
		case "timeout_ms":
			bit = 1 << 7
			req.TimeoutMS, ok = s.int()
		case "shards":
			bit, ok = 1<<8, s.intField(&req.Shards)
		case "async":
			bit = 1 << 9
			switch {
			case s.literal("true"):
				req.Async = true
			case !s.literal("false"):
				ok = false
			}
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.next('}') {
			return s.rest()
		}
		if !s.next(',') {
			return false
		}
	}
}

// strField consumes a string value into dst.
func (s *wireScanner) strField(dst *string) bool {
	v, ok := s.str()
	*dst = string(v)
	return ok
}

// intField consumes an integer value into dst; one int cannot hold is
// left to the reference decoder.
func (s *wireScanner) intField(dst *int) bool {
	v, ok := s.int()
	*dst = int(v)
	return ok && int64(*dst) == v
}

// rest reports whether only whitespace follows the object.
func (s *wireScanner) rest() bool {
	return skipSpace(s.b, s.i) == len(s.b)
}

// writeResult writes res with the given status: the bytes of
// writeJSON(w, status, res), built in a pooled buffer and sent with one
// Write. Clients (perfbench's digest check, cmd/servesmoke) locate the
// starts array by its indented framing, so the bytes are pinned to
// encoding/json by TestWriteResultMatchesEncoding.
func writeResult(w http.ResponseWriter, status int, res Result) {
	bp := getBuf(256 + 8*len(res.Starts))
	defer putBuf(bp)
	b, err := AppendResult(*bp, &res)
	if err != nil {
		// A non-finite float: let the reference encoder fail as it does.
		writeJSON(w, status, res)
		return
	}
	*bp = b
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// errNonFinite is AppendResult's error for a NaN or infinite float,
// which JSON cannot carry.
var errNonFinite = errors.New("service: non-finite float in result")

// AppendResult appends the JSON of res to b exactly as json.Encoder
// with SetIndent("", "  ") writes it, trailing newline included.
func AppendResult(b []byte, res *Result) ([]byte, error) {
	b = append(b, "{\n  \"id\": "...)
	b = appendString(b, res.ID)
	b = append(b, ",\n  \"tenant\": "...)
	b = appendString(b, res.Tenant)
	b = append(b, ",\n  \"status\": "...)
	b = appendString(b, res.Status)
	if res.Alg != "" {
		b = append(b, ",\n  \"alg\": "...)
		b = appendString(b, res.Alg)
	}
	if res.MaxColor != 0 {
		b = append(b, ",\n  \"maxcolor\": "...)
		b = strconv.AppendInt(b, res.MaxColor, 10)
	}
	if len(res.Starts) > 0 {
		b = append(b, ",\n  \"starts\": ["...)
		for i, v := range res.Starts {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = strconv.AppendInt(b, v, 10)
		}
		b = append(b, "\n  ]"...)
	}
	if res.Partial {
		b = append(b, ",\n  \"partial\": true"...)
	}
	if res.Error != "" {
		b = append(b, ",\n  \"error\": "...)
		b = appendString(b, res.Error)
	}
	var ok bool
	if res.QueueMS != 0 {
		b = append(b, ",\n  \"queue_ms\": "...)
		if b, ok = appendFloat(b, res.QueueMS); !ok {
			return b, errNonFinite
		}
	}
	if res.WallMS != 0 {
		b = append(b, ",\n  \"wall_ms\": "...)
		if b, ok = appendFloat(b, res.WallMS); !ok {
			return b, errNonFinite
		}
	}
	if res.TraceID != "" {
		b = append(b, ",\n  \"trace_id\": "...)
		b = appendString(b, res.TraceID)
	}
	return append(b, "\n}\n"...), nil
}

// appendString appends s as a JSON string. Printable ASCII that
// encoding/json leaves alone is copied; anything else (quotes,
// backslashes, control bytes, <>&, non-ASCII) takes json.Marshal's
// escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json formats a float64: the
// shortest 'f' form, or 'e' with a one-digit negative exponent below
// 1e-6 and from 1e21. It reports false for NaN and infinities.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 -> e-7, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}
