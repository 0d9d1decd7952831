package main

import (
	"errors"
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// asMain is the environment variable that makes the test binary run
// main instead of the tests, so each test drives the real command.
const asMain = "STELLARCTL_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// invoke executes the command with args and returns its exit code and
// combined output.
func invoke(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMain+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, string(out)
	case errors.As(err, &exit):
		return exit.ExitCode(), string(out)
	}
	t.Fatalf("stellarctl %v: %v", args, err)
	return 0, ""
}

// flagLine matches a flag in -h output. The test binary's own -test.*
// flags are on the same flag set and do not match.
var flagLine = regexp.MustCompile(`(?m)^  -([a-z-]+)(?:\s|$)`)

// TestFlagSet pins stellarctl's flags exactly: host inspection only.
// Fleet and datapath reports (-churn, -tcp, -shards) and checkpoints
// belong to stellarbench, and a new flag shows up here.
func TestFlagSet(t *testing.T) {
	code, out := invoke(t, "-h")
	if code != 0 {
		t.Fatalf("-h exited %d:\n%s", code, out)
	}
	var got []string
	for _, m := range flagLine.FindAllStringSubmatch(out, -1) {
		got = append(got, m[1])
	}
	sort.Strings(got)
	want := []string{"chaos", "devices", "jobgraph", "legacy-vfs", "seed", "spotcheck", "trace", "trace-txt"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v, want %v", got, want)
	}
}

// TestRefusesChurn: the fleet report is `stellarbench -exp fig6-fleet`,
// so -churn is an undefined flag and exits 2.
func TestRefusesChurn(t *testing.T) {
	if code, out := invoke(t, "-churn", "4"); code != 2 {
		t.Errorf("-churn 4 exited %d, want 2:\n%s", code, out)
	}
}
