package simtime

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseDuration: the parser must never panic, everything it accepts must
// equal the number times its unit to within rounding, and it must re-parse
// from its own String rendering to a nearby value.
func FuzzParseDuration(f *testing.F) {
	for _, seed := range []string{
		"1us", "1.5ms", "2s", "500ns", "-3µs", "", "xx", "1e300s", "NaNms",
		"NaNus", "Infs", "-Infms", "9223372036854775807s", "9223372036.8549s",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, numeric := referenceNanos(s)
		inRange := numeric && math.Abs(want) < math.MaxInt64
		d, err := ParseDuration(s)
		if err != nil {
			if inRange {
				t.Fatalf("%q (%g ns) rejected: %v", s, want, err)
			}
			return
		}
		if !inRange {
			t.Fatalf("%q accepted as %v, but its value %g ns is not finite within int64 nanoseconds", s, d, want)
		}
		if got := float64(d); math.Abs(got-want) > 0.5+math.Abs(want)*0x1p-52 {
			t.Fatalf("%q parsed to %d ns, want %g ns to within rounding", s, int64(d), want)
		}
		back, err := ParseDuration(d.String())
		if err != nil {
			// String rounds to a millisecond at the seconds scale, so a value
			// within that of the int64 bound renders just past it.
			if math.Abs(float64(d)) > math.MaxInt64-float64(Millisecond) {
				return
			}
			t.Fatalf("String rendering %q of parsed %q does not re-parse: %v", d.String(), s, err)
		}
		diff := int64(back - d)
		if diff < 0 {
			diff = -diff
		}
		// String rounds to three decimals of the displayed unit; allow that.
		if d != 0 && float64(diff) > 0.001*absF(float64(d))+1 {
			t.Fatalf("round trip of %q drifted: %v -> %v", s, d, back)
		}
	})
}

// referenceNanos computes a duration spec's value in nanoseconds
// independently of ParseDuration; ok is false when the spec has no unit or
// no number.
func referenceNanos(s string) (ns float64, ok bool) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9}} {
		if num, found := strings.CutSuffix(s, u.suffix); found {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err == nil
		}
	}
	return 0, false
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
