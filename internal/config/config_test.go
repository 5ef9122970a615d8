package config

import (
	"math"
	"strings"
	"testing"
)

const validScenario = `{
  "lmax": 424,
  "servers": [
    {"name": "n1", "capacity": 1536000, "gamma": 0.001},
    {"name": "n2", "capacity": 1536000, "gamma": 0.001}
  ],
  "sessions": [
    {"name": "voice", "rate": 32000, "route": ["n1", "n2"],
     "jitter_control": true, "b0": 424,
     "source": {"kind": "onoff", "t": 0.01325, "length": 424,
                "mean_on": 0.352, "mean_off": 0.65}},
    {"name": "cross", "rate": 1472000, "route": ["n1"],
     "source": {"kind": "poisson", "mean": 0.00028804, "length": 424}}
  ],
  "duration": 10,
  "seed": 1
}`

func TestParseAndRun(t *testing.T) {
	s, err := Parse([]byte(validScenario))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWithMetrics(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sessions) != 2 {
		t.Fatalf("sessions = %d", len(res.Sessions))
	}
	voice := res.Sessions[0]
	if voice.Name != "voice" || voice.Delivered == 0 {
		t.Fatalf("voice result: %+v", voice)
	}
	if voice.DelayBound == 0 || !voice.BoundHolds {
		t.Errorf("voice bound: %+v", voice)
	}
	if voice.JitterBound == 0 {
		t.Error("jitter bound missing for jitter-controlled session")
	}
	cross := res.Sessions[1]
	if cross.DelayBound != 0 {
		t.Error("cross session without b0 should have no bound")
	}
	if cross.Delivered == 0 {
		t.Error("cross delivered nothing")
	}
}

func TestParseWithClasses(t *testing.T) {
	doc := `{
	  "lmax": 400, "proc": 2,
	  "classes": [{"r": 10000000, "sigma": 0.0002}, {"r": 100000000, "sigma": 0.004}],
	  "servers": [{"name": "s", "capacity": 100000000, "gamma": 0}],
	  "sessions": [{"name": "a", "rate": 100000, "route": ["s"], "class": 1, "b0": 400,
	    "source": {"kind": "deterministic", "interval": 0.004, "length": 400}}],
	  "duration": 1, "seed": 2
	}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWithMetrics(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions[0].Delivered == 0 {
		t.Error("no packets")
	}
}

func TestParseRejectsBadDocuments(t *testing.T) {
	session := func(fields string) string {
		return `{"lmax":424,"duration":1,"servers":[{"name":"a","capacity":1000}],"sessions":[{"rate":10,"route":["a"],` + fields + `}]}`
	}
	greedy := `"source":{"kind":"greedy","rate":10,"length":100}`
	cases := map[string]string{
		"bad json":       `{`,
		"no lmax":        `{"servers":[{"name":"a","capacity":1}],"sessions":[],"duration":1}`,
		"no duration":    `{"lmax":10,"servers":[{"name":"a","capacity":1}],"sessions":[]}`,
		"no servers":     `{"lmax":10,"servers":[],"sessions":[],"duration":1}`,
		"dup server":     `{"lmax":10,"duration":1,"servers":[{"name":"a","capacity":1},{"name":"a","capacity":1}],"sessions":[]}`,
		"unknown hop":    `{"lmax":400,"duration":1,"servers":[{"name":"a","capacity":1000}],"sessions":[{"rate":10,"route":["zzz"],"source":{"kind":"greedy","rate":10,"length":100}}]}`,
		"bad source":     `{"lmax":400,"duration":1,"servers":[{"name":"a","capacity":1000}],"sessions":[{"rate":10,"route":["a"],"source":{"kind":"fractal","length":100}}]}`,
		"oversize pkt":   `{"lmax":50,"duration":1,"servers":[{"name":"a","capacity":1000}],"sessions":[{"rate":10,"route":["a"],"source":{"kind":"greedy","rate":10,"length":100}}]}`,
		"zero rate":      `{"lmax":400,"duration":1,"servers":[{"name":"a","capacity":1000}],"sessions":[{"rate":0,"route":["a"],"source":{"kind":"greedy","rate":10,"length":100}}]}`,
		"empty route":    `{"lmax":400,"duration":1,"servers":[{"name":"a","capacity":1000}],"sessions":[{"rate":10,"route":[],"source":{"kind":"greedy","rate":10,"length":100}}]}`,
		"unnamed server": `{"lmax":10,"duration":1,"servers":[{"capacity":1}],"sessions":[]}`,
		// What the System refuses when the document is built, Parse
		// refuses when it is read: each of these once parsed, and failed
		// (or panicked, or reported bounds for packets it did not send)
		// only when run.
		"negative gamma":     `{"lmax":10,"duration":1,"servers":[{"name":"a","capacity":1,"gamma":-0.5}],"sessions":[]}`,
		"unknown proc":       `{"lmax":10,"duration":1,"proc":7,"classes":[{"r":1,"sigma":1}],"servers":[{"name":"a","capacity":1}],"sessions":[]}`,
		"R_P below capacity": `{"lmax":10,"duration":1,"classes":[{"r":1,"sigma":1}],"servers":[{"name":"a","capacity":2}],"sessions":[]}`,
		"negative sigma":     `{"lmax":10,"duration":1,"classes":[{"r":1,"sigma":-1}],"servers":[{"name":"a","capacity":1}],"sessions":[]}`,
		"lmin above lmax":    session(`"lmin":300,"lmax":200,"source":{"kind":"greedy","rate":10,"length":250}`),
		"pkt above lmax":     session(`"lmax":200,"source":{"kind":"greedy","rate":10,"length":424}`),
		"pkt below lmin":     session(`"lmin":200,` + greedy),
		"class out of range": session(`"class":2,` + greedy),
		"negative class":     session(`"class":-1,` + greedy),
		"negative eps":       session(`"eps":-1,` + greedy),
		"onoff without t":    session(`"source":{"kind":"onoff","mean_on":1,"length":100}`),
		"negative mean_off":  session(`"source":{"kind":"onoff","t":0.1,"mean_on":1,"mean_off":-1,"length":100}`),
		"poisson zero mean":  session(`"source":{"kind":"poisson","length":100}`),
		"greedy zero rate":   session(`"source":{"kind":"greedy","length":100}`),
		// A zero-length greedy source has a zero gap and never advances
		// the clock: the run would not return.
		"zero length":        session(`"source":{"kind":"greedy","rate":10,"length":0}`),
		"missing length":     session(`"source":{"kind":"greedy","rate":10}`),
		"negative length":    session(`"lmin":-5,"source":{"kind":"greedy","rate":10,"length":-5}`),
		"proc 7, no classes": `{"lmax":10,"duration":1,"proc":7,"servers":[{"name":"a","capacity":1}],"sessions":[]}`,
		// A shaper given by half runs no shaper: the stream would go out
		// unshaped and be judged against a bucket it never passed.
		"shape_rate alone":   session(`"source":{"kind":"poisson","mean":1,"length":100,"shape_rate":10}`),
		"shape_b0 alone":     session(`"source":{"kind":"poisson","mean":1,"length":100,"shape_b0":100}`),
		"negative shape_b0":  session(`"source":{"kind":"poisson","mean":1,"length":100,"shape_rate":10,"shape_b0":-100}`),
		"negative shape":     session(`"source":{"kind":"poisson","mean":1,"length":100,"shape_rate":-10,"shape_b0":100}`),
		"shape_b0 below pkt": session(`"source":{"kind":"poisson","mean":1,"length":100,"shape_rate":10,"shape_b0":99}`),
		// b0/r bounds D_ref only for a bucket a packet fits in.
		"b0 below one packet": session(`"b0":10,` + greedy),
		"b0 below lmax":       session(`"b0":150,"lmax":200,` + greedy),
		"negative b0":         session(`"b0":-5,` + greedy),
		// The keys the conformance harness's documents brought.
		"from without to":     `{"lmax":10,"duration":1,"servers":[{"from":"a","capacity":1}],"sessions":[]}`,
		"from equals to":      `{"lmax":10,"duration":1,"servers":[{"from":"a","to":"a","capacity":1}],"sessions":[]}`,
		"dup default name":    `{"lmax":10,"duration":1,"servers":[{"from":"a","to":"b","capacity":1},{"from":"a","to":"b","capacity":1}],"sessions":[]}`,
		"route does not join": `{"lmax":400,"duration":1,"servers":[{"from":"a","to":"b","capacity":1000},{"from":"c","to":"d","capacity":1000}],"sessions":[{"rate":10,"route":["a->b","c->d"],` + greedy + `}]}`,
		"r and r_frac":        `{"lmax":10,"duration":1,"classes":[{"r":1,"r_frac":1,"sigma":1}],"servers":[{"name":"a","capacity":1}],"sessions":[]}`,
		"r_frac below 1 at P": `{"lmax":10,"duration":1,"classes":[{"r_frac":0.5,"sigma":1}],"servers":[{"name":"a","capacity":1}],"sessions":[]}`,
		"proc 3 with classes": `{"lmax":10,"duration":1,"proc":3,"classes":[{"r_frac":1,"sigma":1}],"servers":[{"name":"a","capacity":1}],"sessions":[]}`,
		"proc 3 without d":    `{"lmax":424,"duration":1,"proc":3,"servers":[{"name":"a","capacity":1000}],"sessions":[{"rate":10,"route":["a"],` + greedy + `}]}`,
		"d without proc 3":    session(`"d":0.5,` + greedy),
		"duplicate id":        `{"lmax":424,"duration":1,"servers":[{"name":"a","capacity":1000}],"sessions":[{"id":2,"rate":10,"route":["a"],` + greedy + `},{"rate":10,"route":["a"],` + greedy + `}]}`,
		"negative id":         session(`"id":-1,` + greedy),
		// The harness hands ids to sesstab as they stand: this one asked
		// its directory for 125 GB.
		"id in the trillions": session(`"id":4000000000000,` + greedy),
		"id one too large":    session(`"id":16777217,` + greedy),
		"limit without b0":    session(`"limit_buffers":true,` + greedy),
		"varlen zero mean":    session(`"source":{"kind":"varlen","length":100}`),
	}
	for name, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for name, fields := range map[string]string{
		"plain":         greedy,
		"largest id":    `"id":16777216,` + greedy,
		"b0 one packet": `"b0":100,` + greedy,
		"shaped":        `"source":{"kind":"poisson","mean":1,"length":100,"shape_rate":10,"shape_b0":100}`,
	} {
		if _, err := Parse([]byte(session(fields))); err != nil {
			t.Errorf("the well-formed session (%s) the cases vary is refused: %v", name, err)
		}
	}
}

// TestAlphaAtTheLengthSent pins eq. 12's alpha term for a session that
// declares a larger lmax than its source sends: alpha = max{d - L/r} is
// taken over the lengths lmin..lmax, and lmin defaults to the length
// actually sent, for admission and for the reported bound alike. Under
// procedure 1 class 1 of {R = C/2} d(L) = L/2r, so alpha = -lmin/2r;
// taking it at lmax = 848 instead of 424 reported 14.8 ms for 21.4 ms.
func TestAlphaAtTheLengthSent(t *testing.T) {
	doc := `{
	  "lmax": 848, "proc": 1,
	  "classes": [{"r": 768000, "sigma": 0.01}, {"r": 1536000, "sigma": 0.02}],
	  "servers": [{"name": "n", "capacity": 1536000, "gamma": 0.001}],
	  "sessions": [{"name": "s", "rate": 32000, "route": ["n"], "class": 1, "lmax": 848, "b0": 848,
	    "source": {"kind": "deterministic", "interval": 0.0265, "length": 424}}],
	  "duration": 1, "seed": 1
	}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWithMetrics(nil)
	if err != nil {
		t.Fatal(err)
	}
	const r, c = 32000.0, 1536000.0
	want := 848/r + (848/c + 0.001) - 424/(2*r) // b0/r + beta + alpha
	got := res.Sessions[0].DelayBound
	if math.Abs(got-want) > 1e-12 || math.Abs(got-0.0214) > 1e-4 {
		t.Errorf("delay bound %.6f s, want %.6f s (21.4 ms)", got, want)
	}
	if !res.Sessions[0].BoundHolds {
		t.Errorf("bound broken: max delay %v", res.Sessions[0].MaxDelay)
	}
}

func TestRunRejectsOverbooking(t *testing.T) {
	doc := `{
	  "lmax": 424,
	  "servers": [{"name": "n", "capacity": 1000, "gamma": 0}],
	  "sessions": [
	    {"name": "a", "rate": 800, "route": ["n"], "source": {"kind": "greedy", "rate": 800, "length": 100}},
	    {"name": "b", "rate": 800, "route": ["n"], "source": {"kind": "greedy", "rate": 800, "length": 100}}
	  ],
	  "duration": 1, "seed": 1
	}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunWithMetrics(nil); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("overbooking not rejected: %v", err)
	}
}

func TestShapedSource(t *testing.T) {
	doc := `{
	  "lmax": 424,
	  "servers": [{"name": "n", "capacity": 1536000, "gamma": 0}],
	  "sessions": [{"name": "s", "rate": 32000, "route": ["n"], "b0": 1272,
	    "source": {"kind": "poisson", "mean": 0.005, "length": 424,
	               "shape_rate": 32000, "shape_b0": 1272}}],
	  "duration": 20, "seed": 4
	}`
	s, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWithMetrics(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sessions[0].BoundHolds {
		t.Errorf("shaped session broke its bound: %+v", res.Sessions[0])
	}
}

// TestValidateChecksOneControllerPerServer: Validate checks every
// session's request against one admission controller per server, built
// once, so a session added to a one-server document costs Validate
// fewer allocations than a controller does.
func TestValidateChecksOneControllerPerServer(t *testing.T) {
	classes := []Class{{R: 512000, Sigma: 5e-3}, {R: 1024000, Sigma: 10e-3}, {R: 1536000, Sigma: 15e-3}}
	doc := func(sessions int) *Scenario {
		s := &Scenario{LMax: 424, Duration: 1, Proc: 2, Classes: classes,
			Servers: []Server{{Name: "n1", Capacity: 1536000, Gamma: 1e-3}}}
		for i := 0; i < sessions; i++ {
			s.Sessions = append(s.Sessions, Session{Rate: 16000, Route: []string{"n1"}, Class: 1 + i%3,
				Source: Source{Kind: "deterministic", Interval: 0.0265, Length: 424}})
		}
		return s
	}
	validate := func(s *Scenario) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	const few, many = 16, 64
	perSession := (validate(doc(many)) - validate(doc(few))) / (many - few)
	cfg := doc(0).systemConfig()
	controller := testing.AllocsPerRun(5, func() {
		if err := cfg.Check("n1", 1536000, 1e-3); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Validate: %.2f allocations per added session; one controller: %.0f", perSession, controller)
	if perSession >= controller {
		t.Errorf("each added session costs Validate %.2f allocations, a controller's %.0f or more", perSession, controller)
	}
}
