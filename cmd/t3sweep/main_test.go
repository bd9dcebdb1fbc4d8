package main

import (
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// TestMain doubles as the CLI: with T3SWEEP_MAIN_ARGS set, the test binary runs the
// command's main on those arguments (separated by "\x1f") instead of the
// tests, so exit-code tests can drive the real flag handling.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("T3SWEEP_MAIN_ARGS"); ok {
		os.Args = append([]string{"t3sweep"}, strings.Split(args, "\x1f")...)
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// runCLI runs the command on args in a child process and returns its exit
// code, standard output and standard error.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "T3SWEEP_MAIN_ARGS="+strings.Join(args, "\x1f"))
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("t3sweep %v: %v", args, err)
	return 0, "", ""
}

// TestWorkerFlags: -j below 1 and a negative -par are usage errors that
// exit 2 naming the flag, before any simulation runs; -par 0 and above run.
func TestWorkerFlags(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		code    int
		errPart string
	}{
		{[]string{"-collective", "multi", "-devices", "4", "-par", "-3"}, 2, "-par -3"},
		{[]string{"-par", "-1"}, 2, "-par -1"},
		{[]string{"-j", "0"}, 2, "-j 0"},
		{[]string{"-links", "NaN"}, 2, "-links"},
		{[]string{"-m", "256", "-n", "256", "-k", "64", "-devices", "2", "-par", "0"}, 0, ""},
	} {
		code, _, stderr := runCLI(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.errPart) {
			t.Errorf("t3sweep %v: exit %d, stderr %q; want exit %d with %q",
				tc.args, code, stderr, tc.code, tc.errPart)
		}
	}
}

// TestClusterRowAtEveryPar: an explicit multi-device row is followed by its
// `# cluster` coordination row at every -par, identically, and a warm
// -cache-dir run that serves the configuration from the store prints it too.
func TestClusterRowAtEveryPar(t *testing.T) {
	dir := t.TempDir()
	sweep := func(extra ...string) (clusterRow, cacheRow string) {
		t.Helper()
		args := append([]string{"-collective", "multi", "-devices", "4",
			"-m", "1024", "-n", "1024", "-k", "256", "-header=false"}, extra...)
		code, stdout, stderr := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("t3sweep %v: exit %d, stderr %q", args, code, stderr)
		}
		for _, line := range strings.Split(stdout, "\n") {
			switch {
			case strings.HasPrefix(line, "# cluster "):
				clusterRow = line
			case strings.HasPrefix(line, "# cache "):
				cacheRow = line
			}
		}
		if !strings.HasPrefix(clusterRow, "# cluster devices=4 windows=") {
			t.Fatalf("t3sweep %v printed no cluster row:\n%s", args, stdout)
		}
		return clusterRow, cacheRow
	}
	p0, _ := sweep("-par", "0")
	if p2, _ := sweep("-par", "2"); p2 != p0 {
		t.Errorf("-par 2 cluster row %q, -par 0 printed %q", p2, p0)
	}
	if cold, _ := sweep("-par", "2", "-cache-dir", dir); cold != p0 {
		t.Errorf("cold -cache-dir cluster row %q, want %q", cold, p0)
	}
	warm, cache := sweep("-par", "0", "-cache-dir", dir)
	if !strings.Contains(cache, " store_hits=1 ") {
		t.Errorf("warm run was not served from the store: %q", cache)
	}
	if warm != p0 {
		t.Errorf("store-hit cluster row %q, want %q", warm, p0)
	}
}

// TestParseFloats: the float-list flags (-links, -qps) accept finite numbers
// only, and every rejection names the flag it came from.
func TestParseFloats(t *testing.T) {
	for _, tc := range []struct {
		flag, in string
		want     []float64
		errPart  string
	}{
		{flag: "links", in: "150", want: []float64{150}},
		{flag: "links", in: "75, 150,300.5", want: []float64{75, 150, 300.5}},
		{flag: "qps", in: "-2", want: []float64{-2}}, // sign checks belong to the caller
		{flag: "qps", in: "NaN", errPart: "-qps: NaN: must be finite"},
		{flag: "qps", in: "Inf", errPart: "-qps: +Inf: must be finite"},
		{flag: "links", in: "150,-Inf", errPart: "-links: -Inf: must be finite"},
		{flag: "links", in: "+inf", errPart: "-links: +Inf: must be finite"},
		{flag: "links", in: "fast", errPart: "-links: strconv.ParseFloat"},
		{flag: "qps", in: "", errPart: "-qps: strconv.ParseFloat"},
	} {
		got, err := parseFloats(tc.flag, tc.in)
		if tc.errPart != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("parseFloats(%q, %q) = %v, %v; want an error containing %q",
					tc.flag, tc.in, got, err, tc.errPart)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseFloats(%q, %q) = %v, %v; want %v", tc.flag, tc.in, got, err, tc.want)
		}
	}
}
