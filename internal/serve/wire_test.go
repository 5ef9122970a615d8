package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wireLog renders request/response exchanges for the wire golden: the
// request line, any request headers and the body, then the status,
// every response header but Date, and the body, bytes quoted.
type wireLog struct{ bytes.Buffer }

func (l *wireLog) exchange(method, path string, hdr []string, body []byte, status int, header http.Header, resp []byte) {
	fmt.Fprintf(&l.Buffer, "%s %s", method, path)
	for i := 0; i+1 < len(hdr); i += 2 {
		fmt.Fprintf(&l.Buffer, " [%s: %s]", hdr[i], hdr[i+1])
	}
	fmt.Fprintf(&l.Buffer, "\n> %q\n< %d\n", body, status)
	keys := make([]string, 0, len(header))
	for k := range header {
		if k != "Date" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&l.Buffer, "< %s: %s\n", k, strings.Join(header[k], ", "))
	}
	fmt.Fprintf(&l.Buffer, "< %q\n\n", resp)
}

// jobIDs and uptime are what differs between two runs of the same
// exchanges: job ids come from a package-wide sequence, and uptime is
// wall time.
var (
	jobIDs = regexp.MustCompile(`job-[0-9]{6}`)
	uptime = regexp.MustCompile(`\\"uptime_s\\":[^,]*`)
)

// normalize replaces every job id by its order of first appearance and
// the uptime by 0 (in the quoted bodies of a wireLog).
func normalize(out []byte) []byte {
	seen := map[string]string{}
	out = jobIDs.ReplaceAllFunc(out, func(id []byte) []byte {
		if _, ok := seen[string(id)]; !ok {
			seen[string(id)] = fmt.Sprintf("job-#%d", len(seen)+1)
		}
		return []byte(seen[string(id)])
	})
	return uptime.ReplaceAll(out, []byte(`\"uptime_s\":0`))
}

// wireMalformed are SETUP bodies at the edges of the wire schema: what
// encoding/json accepts beside the exact tags (case-folded and escaped
// keys, a repeated key, null), numbers an int or a float64 refuses, and
// documents that are not one object.
var wireMalformed = []string{
	`{"id":10,"rate":32000,"lmax":424,"bogus":1}`,
	`{"ID":11,"rate":32000,"lmax":424}`,
	`{"Rate":32000,"id":12,"LMAX":424}`,
	`{"i\u0064":13,"rate":32000,"lmax":424}`,
	`{"id":14,"id":15,"rate":32000,"lmax":424}`,
	`null`,
	`{"id":null,"rate":32000,"lmax":424}`,
	`{"id":1.0,"rate":32000,"lmax":424}`,
	`{"id":1e2,"rate":32000,"lmax":424}`,
	`{"id":9223372036854775808,"rate":32000,"lmax":424}`,
	`{"id":16,"rate":1e400,"lmax":424}`,
	`{"id":01,"rate":32000,"lmax":424}`,
	`{"id":16,"rate":32000,"lmax":424,}`,
	`{"id":16,"rate":32000,"lmax":424} x`,
	`{"id":16,"rate":32000,"lmax":424}{}`,
	`{"id":16,"rate":32000,"lmax":424`,
	``,
	"\ufeff" + `{"id":16,"rate":32000,"lmax":424}`,
	`{"id":"16","rate":32000,"lmax":424}`,
	`{"id":16,"rate":true,"lmax":424}`,
	`[16]`,
	`{"id":-0,"rate":32000,"lmax":424}`,
	`{"id":16,"rate":+32000,"lmax":424}`,
	`{"id":16,"rate":.5,"lmax":424}`,
	`{"id":16,"rate":32000.,"lmax":424}`,
	" \n{ \"id\" : 16 ,\t\"rate\" : 3.2e4 , \"lmax\" : 4.24E+2 }\r\n\t",
	`{"id":17,"rate":32000,"lmax":424,"lmin":-0,"eps":0.0,"class":1}`,
	`{}`,
}

// TestWireGolden pins every endpoint's answer byte for byte: status,
// headers but Date, and body, in testdata/wire.golden. In process,
// through Daemon.Handler: systems with duplicates, refusals and an
// HTML-escaped name, SETUP, Adopt and RELEASE with every edge of the
// body schema, the deadline header, and a scenario's life from submit
// (with idempotency duplicate and 429 sheds) through purge, run, kill
// and stats. Over a real listener (only there does net/http add
// Connection: close when MaxBody trips): two bodies over MaxBody, one
// refused early and one valid but padded past it, a body too long for
// any small buffer, and a chunked body.
func TestWireGolden(t *testing.T) {
	var log wireLog

	d := New(Options{QueueDepth: 2})
	routes := d.Handler()
	do := func(method, path, body string, hdr ...string) []byte {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		rec := httptest.NewRecorder()
		routes.ServeHTTP(rec, req)
		log.exchange(method, path, hdr, []byte(body), rec.Code, rec.Result().Header, rec.Body.Bytes())
		return rec.Body.Bytes()
	}
	post := func(path, body string, hdr ...string) []byte {
		t.Helper()
		return do(http.MethodPost, path, body, hdr...)
	}

	do(http.MethodGet, "/v1/healthz", "")
	post("/v1/systems", `{"name":"t1","capacity":1536000,"lmax":424,"budget_s":0.5}`)
	post("/v1/systems", `{"name":"t1","capacity":1536000,"lmax":424}`)
	post("/v1/systems", `{"name":"<b>&\"x\"","capacity":1536000,"lmax":424}`)
	post("/v1/systems", `{"name":"p2","capacity":1536000,"lmax":424,"proc":2,"classes":[{"r":768000,"sigma":0.01},{"r":1536000,"sigma":0.1}]}`)
	post("/v1/systems", `{"name":"p7","capacity":1536000,"lmax":424,"proc":7}`)
	post("/v1/systems", `{"name":"","capacity":-1,"lmax":0}`)
	post("/v1/systems", `{"name":"x","capacity":1,"lmax":1,"bogus_field":1}`)
	post("/v1/systems", `{garbage`)

	post("/v1/systems/t1/setup", `{"id":1,"rate":32000,"lmax":424}`)
	post("/v1/systems/t1/setup", `{"id":1,"rate":32000,"lmax":424}`)
	post("/v1/systems/t1/setup", `{"id":2,"rate":99999999,"lmax":424}`)
	post("/v1/systems/t1/setup", `{"id":3,"rate":32000,"lmax":424,"lmin":100,"class":1,"eps":0.001}`)
	post("/v1/systems/t1/setup", `{"id":4,"rate":32000,"lmax":4240}`)
	post("/v1/systems/t1/setup", `{"id":0,"rate":32000,"lmax":424}`)
	post("/v1/systems/t1/setup", `{"id":4,"rate":32000,"lmax":424,"class":2}`)
	post("/v1/systems/t1/setup", `{"id":4,"rate":32000,"lmax":424,"lmin":425}`)
	post("/v1/systems/t1/setup", `{"id":4,"rate":32000,"lmax":424,"eps":-1}`)
	post("/v1/systems/p2/setup", `{"id":4,"rate":32000,"lmax":424,"class":2}`)
	post("/v1/systems/nope/setup", `{"id":4,"rate":32000,"lmax":424}`)
	post("/v1/systems/t1/setup", `{"id":5,"rate":32000,"lmax":424}`, "X-Request-Deadline", "NaN")
	post("/v1/systems/t1/setup", `{"id":5,"rate":32000,"lmax":424}`, "X-Request-Deadline", "1e12")
	for _, body := range wireMalformed {
		post("/v1/systems/t1/setup", body)
	}
	post("/v1/systems/t1/adopt", `{"id":7,"rate":32000,"lmax":424}`)
	post("/v1/systems/t1/adopt", `{"id":7,"rate":32000,"lmax":424}`)
	post("/v1/systems/t1/adopt", `{"id":8,"rate":2000000,"lmax":424}`)
	post("/v1/systems/t1/adopt", `{"ID":9,"rate":32000,"lmax":424,"bogus":1}`)
	post("/v1/systems/%3Cb%3E&%22x%22/adopt", `{"id":1,"rate":64000,"lmax":200}`)
	for _, body := range []string{`{"id":1}`, `{"id":1}`, `{"ID":3}`, `{"id":1.5}`, `{"session":1}`, `{}`, `null`, `{"id":7} {}`, ` {"id" : 7 } `} {
		post("/v1/systems/t1/release", body)
	}
	post("/v1/systems/nope/release", `{"id":1}`)
	do(http.MethodGet, "/v1/stats", "")

	const key = "X-Idempotency-Key"
	doc := string(chaosScenario(1, 0.1))
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(post("/v1/scenarios", doc, key, "k1"), &sub); err != nil {
		t.Fatal(err)
	}
	post("/v1/scenarios", doc, key, "k1")
	post("/v1/scenarios", doc)
	post("/v1/scenarios", doc)
	post("/v1/scenarios", `{"not":"a scenario"}`)
	job := "/v1/scenarios/" + sub.ID
	do(http.MethodGet, job, "")
	do(http.MethodGet, job+"/telemetry", "")
	do(http.MethodGet, job+"/trace", "")
	post(job+"/purge", `{"session":1}`)
	post(job+"/purge", `{"session":"1"}`)
	post(job+"/purge", `{"session":1,"x":2}`)
	post("/v1/scenarios/job-none/purge", `{"session":1}`)
	do(http.MethodDelete, "/v1/scenarios/job-none", "")
	work := func() {
		j := <-d.queue
		d.maybeResume()
		d.runJob(j)
	}
	work()
	do(http.MethodGet, job, "")
	do(http.MethodGet, job+"/telemetry", "")
	do(http.MethodGet, job+"/trace", "")
	post(job+"/purge", `{"session":1}`)
	do(http.MethodDelete, job, "")
	if err := json.Unmarshal(post("/v1/scenarios", doc), &sub); err != nil {
		t.Fatal(err)
	}
	do(http.MethodDelete, "/v1/scenarios/"+sub.ID, "")
	work()
	do(http.MethodGet, "/v1/scenarios/"+sub.ID, "")
	do(http.MethodGet, "/v1/stats", "")

	// Over a real listener. MaxBody is above encoding/json's first
	// 512-byte read, so a body refused in its first bytes is not read to
	// the limit.
	real := New(Options{MaxBody: 1024})
	srv := httptest.NewServer(real.Handler())
	defer srv.Close()
	client := srv.Client()
	send := func(path string, body io.Reader, shown []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, srv.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		// The client takes Connection: close out of the header into Close.
		header := resp.Header.Clone()
		if resp.Close {
			header.Set("Connection", "close")
		}
		log.exchange(http.MethodPost, path, nil, shown, resp.StatusCode, header, got)
	}
	sendBytes := func(path, body string) { send(path, strings.NewReader(body), []byte(body)) }
	sendBytes("/v1/systems", `{"name":"t1","capacity":1536000,"lmax":424}`)
	sendBytes("/v1/systems/t1/setup", `{"id":1,"rate":32000,"lmax":424}`)
	sendBytes("/v1/systems/t1/setup", `{garbage`+strings.Repeat(" ", 1500))
	sendBytes("/v1/systems/t1/setup", `{"id":2,"rate":32000,"lmax":424}`+strings.Repeat(" ", 1500)+"x")
	sendBytes("/v1/systems/t1/setup", `{"id":3,"rate":32000,"lmax":424}`+strings.Repeat(" ", 600))
	chunked := `{"id":4,"rate":32000,"lmax":424}`
	// A reader of unknown length: the client sends the body chunked.
	send("/v1/systems/t1/setup", io.MultiReader(strings.NewReader(chunked)), []byte(chunked))
	sendBytes("/v1/systems/t1/release", `{"id":4}`)
	client.CloseIdleConnections()

	got := normalize(log.Bytes())
	want, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire exchanges differ from testdata/wire.golden (%d bytes, want %d)", len(got), len(want))
		for i, line := range strings.Split(string(got), "\n") {
			if w := strings.Split(string(want), "\n"); i >= len(w) || w[i] != line {
				t.Errorf("first difference at line %d: %q", i+1, line)
				break
			}
		}
	}
}
