package lit_test

import (
	"os"
	"strings"
	"testing"
)

// TestDesignHeadingsUnique fails when DESIGN.md repeats a "## " heading:
// a section stored twice drifts into two versions that disagree.
func TestDesignHeadingsUnique(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "## ") {
			continue
		}
		if first, ok := seen[line]; ok {
			t.Errorf("DESIGN.md:%d repeats %q from line %d", i+1, line, first)
		}
		seen[line] = i + 1
	}
}
