package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// asMain is the environment variable that makes the test binary run
// main instead of the tests, so each test drives the real command.
const asMain = "STELLARBENCH_TEST_AS_MAIN"

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
	t.Fatalf("stellarbench %v: %v", args, err)
	return 0, ""
}

// flagLine matches a flag in -h output. The test binary's own -test.*
// flags are on the same flag set and do not match.
var flagLine = regexp.MustCompile(`(?m)^  -([a-z-]+)(?:\s|$)`)

// TestFlagSet pins stellarbench's flags exactly. There is no checkpoint
// store (-checkpoint), the shard count follows -parallel (-shards) and
// -json is the one machine-readable output (-csv); a new flag shows up
// here.
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
	want := []string{"chaos", "cpuprofile", "exp", "jobgraph", "json", "list", "memprofile", "parallel", "seed", "trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v, want %v", got, want)
	}
}

// TestRefusesUndefinedFlags: flags that no longer exist exit 2 before
// any experiment runs.
func TestRefusesUndefinedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "sec4", "-checkpoint", "ckpt"},
		{"-exp", "sec4", "-shards", "2"},
		{"-exp", "sec4", "-csv"},
	} {
		if code, out := invoke(t, args...); code != 2 {
			t.Errorf("%v exited %d, want 2:\n%s", args, code, out)
		}
	}
}

// TestRefusesDeploy: there is no deploy experiment (fig6, fig9 and
// fig16b measure the §1 claims), so -exp deploy is unknown and exits 2.
func TestRefusesDeploy(t *testing.T) {
	if code, out := invoke(t, "-exp", "deploy"); code != 2 {
		t.Errorf("-exp deploy exited %d, want 2:\n%s", code, out)
	}
}

// TestRefusesAbsurdJobGraph: a -jobgraph file whose rank count no
// fleet can hold, whose compute chain would overflow virtual time, or
// whose ring volume would wrap uint64 (each op valid on its own) fails
// validation on load and exits 2 with the error, before any fabric is
// built: no panic and no wrong table.
func TestRefusesAbsurdJobGraph(t *testing.T) {
	dir := t.TempDir()
	for name, tc := range map[string]struct{ graph, want string }{
		"ranks": {`{"name":"huge","ranks":4611686018427387904,"ops":[{"id":"c0","kind":"compute","rank":0,"for":"1us"}]}`,
			"Ranks must be in [1, MaxRanks]"},
		"compute": {`{"name":"h","ranks":2,"ops":[{"id":"c","kind":"compute","rank":0,"for":"2562047h"},{"id":"d","kind":"compute","rank":0,"for":"2562047h","deps":["c"]}]}`,
			"graph exceeds MaxCompute or MaxBytes"},
		"ring3": {`{"name":"ov3","ranks":3,"ops":[{"id":"a","kind":"collective","ranks":[0,1,2],"bytes":9223372036854775809}]}`,
			"graph exceeds MaxCompute or MaxBytes"},
		"ring2": {`{"name":"ov2","ranks":2,"ops":[{"id":"a","kind":"collective","ranks":[0,1],"bytes":9223372036854775808}]}`,
			"graph exceeds MaxCompute or MaxBytes"},
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(tc.graph), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out := invoke(t, "-jobgraph", path, "-seed", "42")
		if code != 2 || strings.Contains(out, "panic:") || !strings.Contains(out, tc.want) {
			t.Errorf("%s: exited %d, want 2 with %q and no panic:\n%s", name, code, tc.want, out)
		}
	}
}

// TestChaosBindErrorFailsExperiment: a scenario that does not fit an
// experiment's topology (a reboot of a switch or a link on a host the
// fabric does not have) fails that experiment with exit 1 and
// a "failed" line, not a panic.
func TestChaosBindErrorFailsExperiment(t *testing.T) {
	dir := t.TempDir()
	for name, scenario := range map[string]string{
		"far-agg":  `{"name": "far-agg", "events": [{"at": "100us", "kind": "switch-reboot", "switch": "agg", "index": 99, "for": "1ms"}]}`,
		"far-host": `{"name": "far-host", "events": [{"at": "100us", "kind": "link-down", "link": {"tier": "host", "dir": "up", "host": 5000}}]}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(scenario), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out := invoke(t, "-exp", "fig12", "-chaos", path)
		if code != 1 || strings.Contains(out, "panic:") || !strings.Contains(out, "stellarbench: fig12 failed: ") {
			t.Errorf("%s: exited %d, want 1 with a failed line and no panic:\n%s", name, code, out)
		}
	}
}

// TestRefusesOutOfRangeGrayFault: a -chaos gray fault whose bandwidth
// cap or extra delay would push a hop past the end of virtual time
// fails to load and exits 2 with the fault error, not a panic in the
// fabric.
func TestRefusesOutOfRangeGrayFault(t *testing.T) {
	dir := t.TempDir()
	for name, knob := range map[string]string{
		"bw-floor":      `"bw_factor":1e-300`,
		"delay-ceiling": `"delay":"2562047h47m16.854775807s"`,
	} {
		path := filepath.Join(dir, name+".json")
		scenario := `{"name":"c7","events":[{"at":"100us","kind":"gray","link":{"tier":"tor-agg","dir":"up"},` + knob + `}]}`
		if err := os.WriteFile(path, []byte(scenario), 0o644); err != nil {
			t.Fatal(err)
		}
		code, out := invoke(t, "-exp", "fig12", "-seed", "42", "-chaos", path)
		if code != 2 || strings.Contains(out, "panic:") || !strings.Contains(out, "fabric: bad fault") {
			t.Errorf("%s: exited %d, want 2 with the bad-fault error and no panic:\n%s", name, code, out)
		}
	}
}
