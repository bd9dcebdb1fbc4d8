package main

import (
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// TestMain doubles as the CLI: with T3SIM_MAIN_ARGS set, the test binary runs the
// command's main on those arguments (separated by "\x1f") instead of the
// tests, so exit-code tests can drive the real flag handling.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("T3SIM_MAIN_ARGS"); ok {
		os.Args = append([]string{"t3sim"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the command on args in a child process and returns its exit
// code and standard error.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "T3SIM_MAIN_ARGS="+strings.Join(args, "\x1f"))
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
	t.Fatalf("t3sim %v: %v", args, err)
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
		{[]string{"-exp", "multi64", "-par", "-1"}, 2, "-par -1"},
		{[]string{"-exp", "table1", "-par", "-5"}, 2, "-par -5"},
		{[]string{"-exp", "table2", "-j", "0"}, 2, "-j 0"},
		{[]string{"-exp", "table2", "-par", "0"}, 0, ""},
		{[]string{"-exp", "table2", "-par", "3"}, 0, ""},
	} {
		code, stderr := runCLI(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.errPart) {
			t.Errorf("t3sim %v: exit %d, stderr %q; want exit %d with %q",
				tc.args, code, stderr, tc.code, tc.errPart)
		}
	}
}

// TestParseQPS: -qps accepts a list of positive finite rates and rejects
// everything else — NaN and ±Inf included, which slip past a plain <= 0
// check — with an error that says why.
func TestParseQPS(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []float64
		errPart string
	}{
		{in: "4", want: []float64{4}},
		{in: "4, 8,12.5", want: []float64{4, 8, 12.5}},
		{in: "NaN", errPart: "finite"},
		{in: "nan", errPart: "finite"},
		{in: "Inf", errPart: "finite"},
		{in: "+Inf", errPart: "finite"},
		{in: "-Inf", errPart: "finite"},
		{in: "4,NaN", errPart: "finite"},
		{in: "0", errPart: "positive"},
		{in: "-3", errPart: "positive"},
		{in: "abc", errPart: "invalid syntax"},
		{in: "", errPart: "invalid syntax"},
	} {
		got, err := parseQPS(tc.in)
		if tc.errPart != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errPart) {
				t.Errorf("parseQPS(%q) = %v, %v; want an error containing %q", tc.in, got, err, tc.errPart)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseQPS(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
