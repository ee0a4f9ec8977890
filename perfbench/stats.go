package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks, or 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// trimmedMean is the mean of xs without its lowest and highest tenth,
// or 0 for no samples.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/10 : len(s)-len(s)/10]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// steadyPercentile is the q-quantile of samples in arrival order, taken
// over consecutive stretches just long enough to put ten samples beyond
// it, and averaged over the stretches without the lowest and highest
// tenth. A shared machine's speed drifts in phases of seconds: the
// trimmed mean weighs fast and slow phases by their length, where a
// median over all samples (or over the stretches) jumps between the
// phases' figures as their shares cross one half, and a few stalled
// seconds move only the trimmed stretches. With fewer than two whole
// stretches it is the plain percentile.
func steadyPercentile(xs []float64, q float64) float64 {
	n := int(math.Ceil(10 / (1 - q)))
	if len(xs) < 2*n {
		return percentile(xs, q)
	}
	var per []float64
	for lo := 0; lo+n <= len(xs); lo += n {
		per = append(per, percentile(xs[lo:lo+n], q))
	}
	return trimmedMean(per)
}

// groupPercentile is the q-quantile of each group's samples, averaged
// over the groups as trimmedMean does, where group g is xs[starts[g]:starts[g+1]] (the last
// runs to the end). The library workload repeats the same work in every
// pass, so its groups differ only by the machine's speed.
func groupPercentile(xs []float64, starts []int, q float64) float64 {
	var per []float64
	for g, lo := range starts {
		hi := len(xs)
		if g+1 < len(starts) {
			hi = starts[g+1]
		}
		if hi > lo {
			per = append(per, percentile(xs[lo:hi], q))
		}
	}
	return trimmedMean(per)
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scaled converts durations to floats in the given unit.
func scaled(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// steadyRate is the points answered per second over the whole seconds
// of a window, averaged over the seconds without the lowest and highest
// tenth (see steadyPercentile). Each batch's points are spread evenly
// over the interval from its send to its answer, so a second's figure is
// not quantized to whole batches; windows under two seconds report the
// plain rate.
func steadyRate(spans [][2]time.Time, start time.Time, wall time.Duration, batch int) float64 {
	secs := int(wall / time.Second)
	if secs < 2 {
		return frac(float64(len(spans)*batch), wall.Seconds())
	}
	counts := make([]float64, secs)
	for _, sp := range spans {
		t0, t1 := sp[0].Sub(start).Seconds(), sp[1].Sub(start).Seconds()
		if t1 <= t0 {
			t1 = t0 + 1e-9
		}
		perSec := float64(batch) / (t1 - t0)
		for i := int(t0); i < secs && float64(i) < t1; i++ {
			lo, hi := max(t0, float64(i)), min(t1, float64(i+1))
			counts[i] += perSec * (hi - lo)
		}
	}
	return trimmedMean(counts)
}
