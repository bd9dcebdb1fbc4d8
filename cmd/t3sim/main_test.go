package main

import (
	"reflect"
	"strings"
	"testing"
)

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
