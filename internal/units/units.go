// Package units provides the shared physical quantities used throughout the
// simulator: time (picoseconds), data sizes (bytes), bandwidths, and clock
// frequencies. Keeping a single integral time base avoids cross-package
// rounding drift when mixing clock domains (the GPU core runs at 1.4 GHz,
// HBM at 1 GHz, and link latencies are quoted in nanoseconds).
package units

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp or duration in picoseconds. A signed 64-bit
// picosecond counter covers about 106 days of simulated time, far beyond any
// experiment in this repository.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String renders the duration with an auto-selected unit.
func (t Time) String() string {
	abs := t
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case abs >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case abs >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	case abs >= Nanosecond:
		return fmt.Sprintf("%.3fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest picosecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// Bytes is a data size in bytes.
type Bytes int64

// Common sizes.
const (
	Byte Bytes = 1
	KiB  Bytes = 1024
	MiB  Bytes = 1024 * KiB
	GiB  Bytes = 1024 * MiB
)

// MiBf converts b to floating-point mebibytes.
func (b Bytes) MiBf() float64 { return float64(b) / float64(MiB) }

// String renders the size with an auto-selected binary unit.
func (b Bytes) String() string {
	abs := b
	if abs < 0 {
		abs = -abs
	}
	switch {
	case abs >= GiB:
		return fmt.Sprintf("%.2fGiB", float64(b)/float64(GiB))
	case abs >= MiB:
		return fmt.Sprintf("%.2fMiB", float64(b)/float64(MiB))
	case abs >= KiB:
		return fmt.Sprintf("%.2fKiB", float64(b)/float64(KiB))
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

// Bandwidth is a transfer rate in bytes per second. Vendor-quoted rates use
// decimal units, so GBps is 1e9 bytes per second.
type Bandwidth float64

// Common rates.
const (
	BytePerSecond Bandwidth = 1
	GBps          Bandwidth = 1e9
	TBps          Bandwidth = 1e12
)

// TransferTime returns the time to move n bytes at rate bw, rounded up to a
// whole picosecond so that a nonzero transfer never takes zero time. A
// result that does not fit in Time panics, naming the bytes and the
// bandwidth, rather than wrapping negative.
func (bw Bandwidth) TransferTime(n Bytes) Time {
	if n <= 0 {
		return 0
	}
	if bw <= 0 {
		panic("units: TransferTime with non-positive bandwidth")
	}
	ps := float64(n) / float64(bw) * float64(Second)
	if !(ps < math.MaxInt64) {
		panic(fmt.Sprintf("units: TransferTime of %d bytes at %g B/s overflows the picosecond clock", int64(n), float64(bw)))
	}
	// Tolerate float rounding: without this, an exact result like 1024000 ps
	// can land at 1024000.0000000001 and ceil up a spurious picosecond.
	if r := math.Round(ps); math.Abs(ps-r) < 1e-3 {
		return Time(r)
	}
	return Time(math.Ceil(ps))
}

// String renders the bandwidth in GB/s.
func (bw Bandwidth) String() string { return fmt.Sprintf("%.1fGB/s", float64(bw)/float64(GBps)) }

// Frequency is a clock rate in hertz.
type Frequency float64

// Common clock rates.
const (
	Hz  Frequency = 1
	MHz Frequency = 1e6
	GHz Frequency = 1e9
)

// Period returns the duration of one clock cycle, rounded to the nearest
// picosecond.
func (f Frequency) Period() Time {
	if f <= 0 {
		panic("units: Period of non-positive frequency")
	}
	return Time(math.Round(float64(Second) / float64(f)))
}

// Cycles converts a cycle count at frequency f to a duration.
func (f Frequency) Cycles(n float64) Time {
	if f <= 0 {
		panic("units: Cycles of non-positive frequency")
	}
	return Time(math.Ceil(n * float64(Second) / float64(f)))
}

// String renders the frequency in GHz.
func (f Frequency) String() string { return fmt.Sprintf("%.2fGHz", float64(f)/float64(GHz)) }

// CeilDiv returns ceil(a/b) for positive b. It is exact for every a: it
// never forms a+b-1, which would wrap near MaxInt64, and it rounds negative
// quotients toward +∞.
func CeilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("units: CeilDiv with non-positive divisor")
	}
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}
