package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"leaveintime/internal/config"
)

// TestExitCodes: a usage error exits 2, a file that cannot be read or
// is not a valid document exits 1, each with a message and no output.
func TestExitCodes(t *testing.T) {
	bin := buildLitrun(t)
	invalid := filepath.Join(t.TempDir(), "invalid.json")
	if err := os.WriteFile(invalid, []byte(`{"duration": 10, "servers": [], "sessions": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		args []string
		code int
	}{
		{"no argument", nil, 2},
		{"missing file", []string{filepath.Join(t.TempDir(), "absent.json")}, 1},
		{"invalid document", []string{invalid}, 1},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, c.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != c.code {
			t.Errorf("%s: %v, want exit %d", c.name, err, c.code)
		}
		if stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%s: stdout %q, stderr %q", c.name, stdout.String(), stderr.String())
		}
	}
}

// TestJSONResult: -json prints the example scenario's result as a
// config.Result, every session of the document present and delivering.
func TestJSONResult(t *testing.T) {
	out, err := exec.Command(buildLitrun(t), "-json", "../../examples/scenario.json").Output()
	if err != nil {
		t.Fatal(err)
	}
	var res config.Result
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("decoding %s: %v", out, err)
	}
	if len(res.Sessions) != 5 {
		t.Fatalf("%d sessions, want the document's 5", len(res.Sessions))
	}
	for _, s := range res.Sessions {
		if s.Delivered <= 0 {
			t.Errorf("session %s delivered %d packets", s.Name, s.Delivered)
		}
	}
}

// TestExemptColumn: on a fault-plan document the holds column reads
// "exempt" for a session the plan disturbs (s2 is churned and routed
// over a link the plan takes down, and breaks its bound) and true or
// false for the rest.
func TestExemptColumn(t *testing.T) {
	out, err := exec.Command(buildLitrun(t), "../../internal/simcheck/testdata/old_churn_seed5.json").Output()
	if err != nil {
		t.Fatal(err)
	}
	holds := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) == 7 {
			holds[f[0]] = f[6]
		}
	}
	for name, want := range map[string]string{"s2": "exempt", "s4": "true"} {
		if holds[name] != want {
			t.Errorf("%s: holds column %q, want %q\n%s", name, holds[name], want, out)
		}
	}
}

// buildLitrun builds the command into a test directory.
func buildLitrun(t *testing.T) string {
	bin := filepath.Join(t.TempDir(), "litrun")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building litrun: %v\n%s", err, out)
	}
	return bin
}
