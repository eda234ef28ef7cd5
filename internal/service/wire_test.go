package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"stencilivc/internal/chaos"
	"stencilivc/internal/grid"
	"stencilivc/internal/heuristics"
)

// wireFixture returns the POST /solve body perfbench sends for an n×n
// GLL instance with weights 0..99, and the done Result the daemon
// answers it with.
func wireFixture(tb testing.TB, n int) ([]byte, Result) {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	g := grid.MustGrid2D(n, n)
	for v := range g.W {
		g.W[v] = rng.Int63n(100)
	}
	body, err := json.Marshal(Request{Tenant: "t0", Alg: "GLL", X: n, Y: n, Weights: g.W})
	if err != nil {
		tb.Fatal(err)
	}
	c, err := heuristics.Run("GLL", g, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return body, Result{
		ID: "job-17", Tenant: "t0", Status: StatusDone, Alg: "GLL",
		MaxColor: c.MaxColor(g), Starts: c.Start,
		QueueMS: 0.412, WallMS: 3.071, TraceID: "00c0ffee00c0ffee",
	}
}

// FuzzDecodeRequest checks DecodeRequest against the reference decoder
// (json.Decoder with DisallowUnknownFields) on any body: both accept or
// both reject, an accepted body decodes to the same Request, and
// validating that Request never panics.
func FuzzDecodeRequest(f *testing.F) {
	body, _ := wireFixture(f, 8)
	for _, seed := range []string{
		string(body),
		`{"tenant":"a\"b\\c","alg":"G\u004cL","x":2,"y":2,"weights":[1,2,3,4]}`,
		`{"alg":"G\u004cL","tenant":"a\\b"}`,
		`{"tenant":"é","instance":"ivc2d 1 1\n1\n"}`,
		`{"Weights":[1,2,3,4],"X":2,"y":2}`,
		`{"x":2,"x":3,"y":2,"weights":[1,2],"weights":[1,2,3,4]}`,
		`{"async":true,"async":false}`,
		`{"x":-0,"y":1,"weights":[-0]}`,
		`{"x":01,"y":1,"weights":[1]}`,
		`{"x":1e2,"y":1,"weights":[1]}`,
		`{"x":1.0,"y":1,"weights":[1.5]}`,
		`{"timeout_ms":1234567890123456789,"weights":[123456789012345678,-123456789012345678]}`,
		`{"weights":[9223372036854775807,-9223372036854775808,9223372036854775808]}`,
		`{"tenant":null,"alg":null,"weights":null,"async":null}`,
		`{"async":true,"shards":2,"alg":"GLF","x":2,"y":2,"weights":[1,2,3,4],"timeout_ms":50}`,
		`{"async":1}`,
		`{"x":"2"}`,
		`{"nope":1}`,
		`null`,
		`[]`,
		`{}`,
		`{"weights":[]}`,
		" {\t\"x\" :\r2 ,\n\"y\": 1, \"weights\" : [ 1 , 2 ] } \n",
		`{"x":2,"y":1,"weights":[1,2]} trailing`,
		`{"x":2,"y":1,"weights":[1,2]}{"x":3}`,
		`{"x":2,"y":1,"weights":[1,2]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := DecodeRequest(body)
		want, wantErr := referenceDecode(bytes.NewReader(body))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("DecodeRequest(%q) error %v, reference %v", body, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("DecodeRequest(%q) error %q, reference %q", body, gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeRequest(%q) = %+v, reference %+v", body, got, want)
		}
		_, _, _, _ = parseRequest(&got)
	})
}

// TestDecodeRequestCutShort covers bodies the read cuts short: past the
// maxRequestBytes cap, a value that has not ended fails with the
// too-large error, while one that ended within the cap is accepted, as
// decoding straight from the capped body does.
func TestDecodeRequestCutShort(t *testing.T) {
	obj := `{"alg":"GLL","x":1,"y":1,"weights":[1]}`
	cases := []struct {
		name, head string
		wantErr    string
	}{
		{"value-ends-in-cap", obj, ""},
		{"value-runs-past-cap", `{"alg":"GLL","instance":"`, "request body too large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := append([]byte(tc.head), bytes.Repeat([]byte{' '}, maxRequestBytes)...)
			r := httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(body))
			req, err := decodeRequest(httptest.NewRecorder(), r)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("decode: %v", err)
			case tc.wantErr == "" && req.Alg != "GLL":
				t.Fatalf("decoded %+v", req)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want %q", err, tc.wantErr)
			}
		})
	}
}

// encodePair returns what writeResult and the reference writeJSON put
// on the wire for res.
func encodePair(t *testing.T, status int, res Result) (got, want *httptest.ResponseRecorder) {
	t.Helper()
	got, want = httptest.NewRecorder(), httptest.NewRecorder()
	writeResult(got, status, res)
	writeJSON(want, status, res)
	return got, want
}

// TestWriteResultMatchesEncoding pins writeResult to writeJSON byte for
// byte — status, Content-Type and body — over edge-case and random
// Results.
func TestWriteResultMatchesEncoding(t *testing.T) {
	done := Result{ID: "job-1", Tenant: "default", Status: StatusDone}
	with := func(f func(*Result)) Result {
		r := done
		f(&r)
		return r
	}
	cases := map[string]Result{
		"zero":           {},
		"minimal":        done,
		"html":           with(func(r *Result) { r.Error, r.Tenant = "<a&b>", "x<y" }),
		"separators":     with(func(r *Result) { r.Error = "line\u2028para\u2029end" }),
		"invalid-utf8":   with(func(r *Result) { r.Error, r.Tenant = "bad\xff\xfe byte", "\xc3" }),
		"quotes":         with(func(r *Result) { r.Error, r.Tenant = `say "hi" \ bye`, `q"\` }),
		"controls":       with(func(r *Result) { r.Error = "\x00\b\f\n\r\t\x1f\x7f" }),
		"non-ascii":      with(func(r *Result) { r.Error = "déjà vu ✓" }),
		"alg":            with(func(r *Result) { r.Alg = "GLL" }),
		"maxcolor":       with(func(r *Result) { r.MaxColor = -9223372036854775808 }),
		"starts-nil":     with(func(r *Result) { r.Starts = nil }),
		"starts-empty":   with(func(r *Result) { r.Starts = []int64{} }),
		"starts-one":     with(func(r *Result) { r.Starts = []int64{7} }),
		"starts-many":    with(func(r *Result) { r.Starts = []int64{0, -1, 9223372036854775807, 12} }),
		"partial":        with(func(r *Result) { r.Partial = true }),
		"error":          with(func(r *Result) { r.Error = "core: partial result" }),
		"queue-tiny":     with(func(r *Result) { r.QueueMS = 1e-7 }),
		"queue-huge":     with(func(r *Result) { r.QueueMS = 1e20 }),
		"queue-e21":      with(func(r *Result) { r.QueueMS = 1e21 }),
		"queue-frac":     with(func(r *Result) { r.QueueMS = 0.123 }),
		"queue-negzero":  with(func(r *Result) { r.QueueMS = math.Copysign(0, -1) }),
		"wall-tiny":      with(func(r *Result) { r.WallMS = -1e-7 }),
		"wall-huge":      with(func(r *Result) { r.WallMS = 1e20 }),
		"wall-e21":       with(func(r *Result) { r.WallMS = 1e21 }),
		"wall-frac":      with(func(r *Result) { r.WallMS = 12.345678 }),
		"wall-small":     with(func(r *Result) { r.WallMS = 1e-6 }),
		"wall-nan":       with(func(r *Result) { r.WallMS = math.NaN() }),
		"queue-inf":      with(func(r *Result) { r.QueueMS = math.Inf(1) }),
		"trace":          with(func(r *Result) { r.TraceID = "0123456789abcdef" }),
		"every-field":    {ID: "job-9", Tenant: "acme", Status: StatusDone, Alg: "BDP", MaxColor: 42, Starts: []int64{0, 3, 5}, Partial: true, Error: "partial", QueueMS: 0.5, WallMS: 2.25, TraceID: "ffffffffffffffff"},
		"queued":         {ID: "job-2", Tenant: "default", Status: StatusQueued},
		"shed":           {ID: "job-3", Tenant: "t", Status: StatusShed, Error: `queue full for tenant "t": shedding instead of queuing unboundedly`},
		"error-status":   {ID: "job-4", Tenant: "t", Status: StatusError, Error: "context deadline exceeded", WallMS: 30000.001},
		"empty-strings":  {Status: StatusDone, Alg: "", Error: "", TraceID: ""},
		"status-unknown": {ID: "j", Tenant: "t", Status: "x&y"},
	}
	// AppendResult spells out every field, so a field added to Result
	// must be set here too, or the comparison would not see it dropped.
	every := reflect.ValueOf(cases["every-field"])
	for i := 0; i < every.NumField(); i++ {
		if every.Field(i).IsZero() {
			t.Fatalf("the every-field case leaves Result.%s unset", every.Type().Field(i).Name)
		}
	}
	for name, res := range cases {
		t.Run(name, func(t *testing.T) {
			for _, status := range []int{http.StatusOK, http.StatusAccepted} {
				got, want := encodePair(t, status, res)
				assertSameReply(t, got, want)
			}
		})
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		res := randomResult(rng)
		got, want := encodePair(t, http.StatusOK, res)
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("random result %d %+v:\n got %q\nwant %q", i, res, got.Body.Bytes(), want.Body.Bytes())
		}
	}
}

// assertSameReply compares status, Content-Type and body.
func assertSameReply(t *testing.T, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code {
		t.Errorf("status %d, reference %d", got.Code, want.Code)
	}
	if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
		t.Errorf("Content-Type %q, reference %q", g, w)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("body\n got %q\nwant %q", got.Body.Bytes(), want.Body.Bytes())
	}
}

// randomResult draws a Result whose every field may be zero or set,
// with strings over an alphabet heavy in bytes JSON escapes.
func randomResult(rng *rand.Rand) Result {
	const alphabet = "abcXYZ09 -_<>&\"\\\n\t\x00\x7f\xff\xe2\x80\xa8é✓"
	str := func() string {
		if rng.Intn(3) == 0 {
			return ""
		}
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return float64(rng.Int63n(1e9)) / 1000
		case 2:
			return math.Pow(10, float64(rng.Intn(50)-25)) * rng.Float64()
		default:
			f := math.Float64frombits(rng.Uint64())
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return 1
			}
			return f
		}
	}
	var starts []int64
	if n := rng.Intn(6) - 1; n >= 0 {
		starts = make([]int64, n)
		for i := range starts {
			starts[i] = rng.Int63() - rng.Int63()
		}
	}
	return Result{
		ID: str(), Tenant: str(), Status: str(), Alg: str(),
		MaxColor: rng.Int63n(3) - 1 + rng.Int63()*int64(rng.Intn(2)),
		Starts:   starts, Partial: rng.Intn(2) == 0, Error: str(),
		QueueMS: float(), WallMS: float(), TraceID: str(),
	}
}

// TestWriteResultMatchesEncodingEndToEnd asserts the same identity on
// live replies: a sync 200, an async 202, and GET /jobs/{id} once the
// async job is done, each equal to the reference encoding of the Result
// it decodes to.
func TestWriteResultMatchesEncodingEndToEnd(t *testing.T) {
	// The only worker stalls on the async job's dispatch, so its 202
	// reply is written while it is still queued, and the sync job waits
	// behind it.
	inj := chaos.New(1)
	inj.OnNth(SiteWorkerPanic, 1).Stalling(SiteWorkerPanic, 100*time.Millisecond)
	_, ts := newTestService(t, Config{Workers: 1, Injector: inj})
	post := func(async bool) (int, []byte) {
		body := fmt.Sprintf(`{"tenant":"t<&>","alg":"GLL","x":6,"y":6,"weights":%s,"async":%v}`,
			mustJSON(t, gridWeights(6)), async)
		resp, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	code, raw := post(true)
	if code != http.StatusAccepted {
		t.Fatalf("async submit: status %d, want 202: %s", code, raw)
	}
	async := assertReferenceBytes(t, "async 202", raw)
	if code, raw = post(false); code != http.StatusOK {
		t.Fatalf("sync submit: status %d, want 200: %s", code, raw)
	}
	if res := assertReferenceBytes(t, "sync 200", raw); res.Status != StatusDone || len(res.Starts) != 36 {
		t.Fatalf("sync result %+v", res)
	}
	if code, _ = pollJob(t, ts.URL, async.ID); code != http.StatusOK {
		t.Fatalf("GET /jobs/%s: status %d, want 200", async.ID, code)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + async.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if res := assertReferenceBytes(t, "GET /jobs", raw); res.Status != StatusDone || res.Tenant != "t<&>" {
		t.Fatalf("polled result %+v", res)
	}
}

// mustJSON marshals v.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// assertReferenceBytes decodes raw into a Result and checks that the
// reference encoder writes raw back for it. JSON round-trips every
// Result field exactly, so equality means raw is the reference encoding
// of what the server sent.
func assertReferenceBytes(t *testing.T, what string, raw []byte) Result {
	t.Helper()
	var res Result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("%s: decode %q: %v", what, raw, err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, res)
	if !bytes.Equal(raw, rec.Body.Bytes()) {
		t.Fatalf("%s: reply bytes differ from the reference encoding\n got %q\nwant %q", what, raw, rec.Body.Bytes())
	}
	return res
}

// BenchmarkWireCodec times the request decode and the reply encode of a
// perfbench-sized instance, each beside its encoding/json reference.
func BenchmarkWireCodec(b *testing.B) {
	for _, n := range []int{128, 256} {
		body, res := wireFixture(b, n)
		b.Run(fmt.Sprintf("Decode/%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeRequest(body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("DecodeReference/%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := referenceDecode(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
		var buf []byte
		b.Run(fmt.Sprintf("Encode/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, _ = AppendResult(buf[:0], &res)
			}
			b.SetBytes(int64(len(buf)))
		})
		b.Run(fmt.Sprintf("EncodeReference/%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			var out bytes.Buffer
			for i := 0; i < b.N; i++ {
				out.Reset()
				enc := json.NewEncoder(&out)
				enc.SetIndent("", "  ")
				if err := enc.Encode(res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
