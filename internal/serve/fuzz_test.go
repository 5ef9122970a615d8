package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"leaveintime/internal/event"
)

// FuzzServeBodies posts one arbitrary body to every endpoint of an
// in-process daemon that reads one — systems-create, setup, release,
// adopt, scenario-submit and purge — and requires of each a JSON answer
// with a 2xx or 4xx status inside the request timeout: never a 5xx, a
// panic or a hung handler. What the body did must also be a valid
// effect: a session it established releases and leaves the controller
// empty, and a scenario it got queued runs to a terminal state without
// a recovered panic (a watchdog trip is a legitimate failure).
func FuzzServeBodies(f *testing.F) {
	for _, c := range malformedProbes {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(`{"name":"x","capacity":1536000,"lmax":424,"proc":2,"classes":[{"r":1536000,"sigma":0.01}],"budget_s":0.5}`))
	f.Add([]byte(`{"id":1,"rate":32000,"lmax":424,"lmin":100,"class":1,"eps":0.001}`))
	f.Add([]byte(`{"id":9223372036854775807,"rate":1e308,"lmax":5e-324,"lmin":-1,"class":-1,"eps":1e308}`))
	f.Add([]byte(`{"id":2,"rate":1e-300,"lmax":1e300,"class":99}`))
	f.Add([]byte(`{"name":"s","capacity":1e308,"lmax":1e-320,"proc":2,"classes":[{"r":-1,"sigma":-1},{"r":0,"sigma":0}],"budget_s":-1}`))
	f.Add([]byte(`{"id":1}`))
	f.Add([]byte(`{"session":1}`))
	f.Add(chaosScenario(1, 0.2))
	// Ten events in 1e13 simulated seconds: a run that is almost all
	// idle slices.
	f.Add([]byte(`{"lmax":424,"servers":[{"name":"n1","capacity":1536000,"gamma":0.001}],
		"sessions":[{"name":"x","rate":32000,"route":["n1"],"source":{"kind":"poisson","mean":1e12,"length":424}}],
		"duration":1e13,"seed":1}`))

	const timeout = 2 * time.Second
	f.Fuzz(func(t *testing.T, body []byte) {
		d := New(Options{
			RequestTimeout: timeout,
			Watchdog:       event.Watchdog{MaxEvents: 20e3, MaxWall: timeout},
		})
		routes := d.Handler()
		// bounded runs fn on its own goroutine, so a handler or a worker
		// that never returns is a failure, not a hung fuzzer.
		bounded := func(what string, fn func()) {
			t.Helper()
			done := make(chan any, 1) // holds fn's one send after a timeout
			go func() {
				defer func() { done <- recover() }()
				fn()
			}()
			select {
			case p := <-done:
				if p != nil {
					t.Fatalf("%s: panic: %v", what, p)
				}
			case <-time.After(2 * timeout):
				t.Fatalf("%s: still running after %v", what, 2*timeout)
			}
		}
		post := func(path string, body []byte) *httptest.ResponseRecorder {
			t.Helper()
			rec := httptest.NewRecorder()
			bounded("POST "+path, func() {
				routes.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			})
			if rec.Code < 200 || rec.Code >= 500 || (rec.Code >= 300 && rec.Code < 400) {
				t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("POST %s: status %d with a non-JSON body %q", path, rec.Code, rec.Body)
			}
			return rec
		}
		// runQueue does a worker's job: every queued scenario runs to a
		// terminal state.
		runQueue := func() {
			t.Helper()
			for {
				select {
				case j := <-d.queue:
					bounded("job "+j.id, func() { d.runJob(j) })
					if st := j.state(); st != JobDone && st != JobFailed {
						t.Fatalf("job %s ended %v", j.id, st)
					}
					if strings.HasPrefix(j.errMsg, "panic:") {
						t.Fatalf("job %s: %s", j.id, j.errMsg)
					}
				default:
					return
				}
			}
		}

		post("/v1/systems", body)
		// A 409 here means the fuzzed body itself created "s".
		post("/v1/systems", []byte(`{"name":"s","capacity":1536000,"lmax":424,"budget_s":0.5}`))
		sys := d.systems["s"]
		if sys == nil {
			t.Fatal("system s neither created nor present")
		}
		for _, verb := range []string{"setup", "adopt"} {
			if post("/v1/systems/s/"+verb, body).Code != http.StatusOK {
				continue
			}
			var req SetupRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("%s accepted a body that does not decode: %v", verb, err)
			}
			if req.LMax > sys.lmax || req.LMin > req.LMax {
				t.Fatalf("%s accepted lmin %g, lmax %g on a system of lmax %g", verb, req.LMin, req.LMax, sys.lmax)
			}
			rel, _ := json.Marshal(ReleaseRequest{ID: req.ID})
			if code := post("/v1/systems/s/release", rel).Code; code != http.StatusOK {
				t.Fatalf("release of the session %s established: status %d", verb, code)
			}
			if n, total := len(sys.sessions), sys.ctrl.TotalRate(); n != 0 || total != 0 {
				t.Fatalf("after %s and release: %d sessions, reserved rate %v", verb, n, total)
			}
		}
		post("/v1/systems/s/release", body)

		post("/v1/scenarios", body)
		runQueue()
		// A purge needs a job to aim at: a known-good pending one, which
		// then runs with whatever session number the body asked for.
		rec := post("/v1/scenarios", chaosScenario(1, 0.1))
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || rec.Code != http.StatusAccepted {
			t.Fatalf("good scenario: status %d, %v", rec.Code, err)
		}
		post("/v1/scenarios/"+sub.ID+"/purge", body)
		runQueue()
	})
}
