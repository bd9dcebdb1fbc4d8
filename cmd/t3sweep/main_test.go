package main

import (
	"reflect"
	"strings"
	"testing"
)

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
