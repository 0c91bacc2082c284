package nbody

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// ciStep matches a step function definition in scripts/ci.sh, the same
// pattern the script's own dispatcher reads; helpers start with "_".
var ciStep = regexp.MustCompile(`^([a-z][a-z0-9_]*)\(\) \{`)

// TestWorkflowRunsCISteps keeps the list of gates in one place,
// scripts/ci.sh. It reads every workflow under .github/workflows line by
// line and fails if a run: value is anything but `scripts/ci.sh <step>` on a
// single line, if <step> is not a function that ci.sh defines, or if a step
// other than `all` is run by no workflow. It also fails if ci.sh loses its
// `set -euo pipefail`, without which a piped `go test` cannot fail a step.
func TestWorkflowRunsCISteps(t *testing.T) {
	src, err := os.ReadFile("scripts/ci.sh")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(src), "\nset -euo pipefail\n") {
		t.Error("scripts/ci.sh: no `set -euo pipefail` line")
	}
	defined := map[string]bool{}
	for _, line := range strings.Split(string(src), "\n") {
		if m := ciStep.FindStringSubmatch(line); m != nil {
			defined[m[1]] = true
		}
	}

	files, err := filepath.Glob(".github/workflows/*.yml")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no .github/workflows/*.yml")
	}
	called := map[string]bool{}
	for _, path := range files {
		yml, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(yml), "\n")
		for i, line := range lines {
			body := strings.TrimLeft(line, " ")
			col := len(line) - len(body)
			if rest, ok := strings.CutPrefix(body, "- "); ok {
				body, col = rest, col+2
			}
			value, ok := strings.CutPrefix(body, "run:")
			if !ok {
				continue
			}
			where := path + ":" + strconv.Itoa(i+1)
			step, ok := strings.CutPrefix(strings.TrimSpace(value), "scripts/ci.sh ")
			if !ok {
				t.Errorf("%s: run: %s; a workflow step runs `scripts/ci.sh <step>` and nothing else", where, strings.TrimSpace(value))
				continue
			}
			// A more-indented next line would continue the value.
			for _, next := range lines[i+1:] {
				if strings.TrimSpace(next) == "" {
					continue
				}
				if len(next)-len(strings.TrimLeft(next, " ")) > col {
					t.Errorf("%s: the run: value continues on the next line", where)
				}
				break
			}
			if !defined[step] {
				t.Errorf("%s: scripts/ci.sh defines no step %q", where, step)
			}
			called[step] = true
		}
	}
	var missing []string
	for step := range defined {
		if step != "all" && !called[step] {
			missing = append(missing, step)
		}
	}
	sort.Strings(missing)
	for _, step := range missing {
		t.Errorf("scripts/ci.sh step %q is run by no workflow", step)
	}
}
