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
// code and standard error.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "T3SWEEP_MAIN_ARGS="+strings.Join(args, "\x1f"))
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	t.Fatalf("t3sweep %v: %v", args, err)
	return 0, ""
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
		code, stderr := runCLI(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.errPart) {
			t.Errorf("t3sweep %v: exit %d, stderr %q; want exit %d with %q",
				tc.args, code, stderr, tc.code, tc.errPart)
		}
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
