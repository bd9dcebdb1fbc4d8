package units

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := (2 * Millisecond).Millis(); got != 2 {
		t.Errorf("Millis = %v, want 2", got)
	}
	if got := (1500 * Nanosecond).Micros(); got != 1.5 {
		t.Errorf("Micros = %v, want 1.5", got)
	}
	if got := FromSeconds(1e-9); got != Nanosecond {
		t.Errorf("FromSeconds(1e-9) = %v, want 1ns", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2.000ns"},
		{3 * Microsecond, "3.000us"},
		{4 * Millisecond, "4.000ms"},
		{5 * Second, "5.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{100, "100B"},
		{2 * KiB, "2.00KiB"},
		{3 * MiB, "3.00MiB"},
		{4 * GiB, "4.00GiB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTransferTime(t *testing.T) {
	// 150 GB/s moving 150 GB takes one second.
	bw := 150 * GBps
	if got := bw.TransferTime(150 * 1e9); got != Second {
		t.Errorf("TransferTime = %v, want 1s", got)
	}
	if got := bw.TransferTime(0); got != 0 {
		t.Errorf("TransferTime(0) = %v, want 0", got)
	}
	// A single byte still takes at least one picosecond.
	if got := (1 * TBps).TransferTime(1); got < 1 {
		t.Errorf("TransferTime(1B) = %v, want >= 1ps", got)
	}
}

// TestTransferTimeOverflowPanics pins that a transfer too long for the
// picosecond clock fails where it is computed, naming its inputs, instead of
// wrapping to a negative Time that only surfaces later as a negative delay.
func TestTransferTimeOverflowPanics(t *testing.T) {
	// At 1 TB/s a byte takes exactly one picosecond, so 2^62 bytes still
	// fits and MaxInt64 bytes (2^63 ps as a float64) does not.
	if got := TBps.TransferTime(1 << 62); got != 1<<62 {
		t.Errorf("TransferTime(2^62) at 1TB/s = %d ps, want %d", int64(got), int64(1)<<62)
	}
	for _, c := range []struct {
		n  Bytes
		bw Bandwidth
	}{
		{math.MaxInt64, TBps},
		{1 << 62, GBps},
		{1, 1e-300},
	} {
		func() {
			want := []string{fmt.Sprintf("%d bytes", int64(c.n)), fmt.Sprintf("%g B/s", float64(c.bw))}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, want[0]) || !strings.Contains(msg, want[1]) {
					t.Errorf("TransferTime(%s at %s): panic %q, want one naming both", want[0], want[1], msg)
				}
			}()
			got := c.bw.TransferTime(c.n)
			t.Errorf("TransferTime(%s at %s) = %d ps, want a panic", want[0], want[1], int64(got))
		}()
	}
}

func TestTransferTimeMonotonic(t *testing.T) {
	bw := 75 * GBps
	f := func(a, b uint32) bool {
		x, y := Bytes(a), Bytes(b)
		if x > y {
			x, y = y, x
		}
		return bw.TransferTime(x) <= bw.TransferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrequency(t *testing.T) {
	if got := (1 * GHz).Period(); got != Nanosecond {
		t.Errorf("Period(1GHz) = %v, want 1ns", got)
	}
	if got := (1.4 * GHz).Cycles(14); got != 10*Nanosecond {
		t.Errorf("Cycles(14 @1.4GHz) = %v, want 10ns", got)
	}
	// Cycles rounds up: one cycle at 1.4 GHz is 715 ps (714.28... rounded up).
	if got := (1.4 * GHz).Cycles(1); got != 715*Picosecond {
		t.Errorf("Cycles(1 @1.4GHz) = %v, want 715ps", got)
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {8, 4, 2},
		// b = 1 is the identity, at both ends of the range.
		{7, 1, 7}, {-7, 1, -7}, {math.MaxInt64, 1, math.MaxInt64}, {math.MinInt64, 1, math.MinInt64},
		// Near MaxInt64 a+b-1 would wrap negative.
		{math.MaxInt64, 2048, 1 << 52}, {math.MaxInt64, 2, 1 << 62},
		{math.MaxInt64 - 1, math.MaxInt64, 1}, {math.MaxInt64, math.MaxInt64, 1},
		// Negative dividends round toward +∞, exact or not.
		{-4, 2, -2}, {-5, 2, -2}, {-1, 4, 0}, {-8, 4, -2}, {math.MinInt64, 2048, -(1 << 52)},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("TransferTime", func() { Bandwidth(0).TransferTime(1) })
	mustPanic("Period", func() { Frequency(0).Period() })
	mustPanic("Cycles", func() { Frequency(-1).Cycles(1) })
	mustPanic("CeilDiv", func() { CeilDiv(1, 0) })
}

func TestNegativeRendering(t *testing.T) {
	if got := Time(-2 * Millisecond).String(); got != "-2.000ms" {
		t.Errorf("negative time = %q", got)
	}
	if got := Bytes(-3 * MiB).String(); got != "-3.00MiB" {
		t.Errorf("negative bytes = %q", got)
	}
}

func TestSecondsRoundTrip(t *testing.T) {
	d := 1500 * Microsecond
	if got := FromSeconds(d.Seconds()); got != d {
		t.Errorf("round trip = %v, want %v", got, d)
	}
}

func TestBandwidthString(t *testing.T) {
	if got := (75 * GBps).String(); got != "75.0GB/s" {
		t.Errorf("bandwidth = %q", got)
	}
}

func TestFrequencyString(t *testing.T) {
	if got := (1.4 * GHz).String(); got != "1.40GHz" {
		t.Errorf("frequency = %q", got)
	}
}
