package main

import (
	"math/rand"
	"slices"
	"time"
)

// The host's speed drifts: on a shared machine the same join loop runs
// 25 % slower or faster for seconds to minutes at a time, as other tenants
// load the cores and caches. Longer runs do not average that out, since a
// slow phase can outlast a run. So the benchmark measures the host alongside
// the engine, with a fixed kernel of its own, and reports every end-to-end
// time at a reference host speed: a duration measured while the kernel took
// c milliseconds is reported as duration × calRefMs / c. A change to the
// engine moves these numbers exactly as it moves wall time on an unchanging
// host; the wall-clock values are printed beside them under "wall.".
//
// The kernel sorts a copy of calInput: branchy, cache-resident work, which
// tracked the join loop's speed over such phases better than an arithmetic
// loop or reads over a large array did. The closed loops time it once every
// probeEvery, between two ops, and each slice of the measured phase is
// scaled by the median of its own probes.

// calRefMs is about the kernel's median time on the 2-vCPU VM the baseline
// was recorded on. Any constant would do; this one keeps the reported values
// close to wall time on that host.
const calRefMs = 1.5

// probeEvery is how often a closed loop stops to time the kernel once.
const probeEvery = 50 * time.Millisecond

// setupProbes kernel runs follow each set-up build, and precede the first.
const setupProbes = 9

// calInput is the kernel's input: the same 20 000 pseudo-random integers
// (160 KB) in every run, whatever the seed.
var calInput = func() []int64 {
	rng := rand.New(rand.NewSource(1))
	xs := make([]int64, 20_000)
	for i := range xs {
		xs[i] = rng.Int63()
	}
	return xs
}()

// calibrator times the kernel. It keeps the probes of the current slice and
// of the slices ended so far.
type calibrator struct {
	buf   []int64
	slice []float64 // ms
	all   []float64 // ms
}

// probe runs the kernel once and returns the wall time the probe took, the
// copy of the input included.
func (c *calibrator) probe() time.Duration {
	if c.buf == nil {
		c.buf = make([]int64, len(calInput))
	}
	start := time.Now()
	copy(c.buf, calInput)
	sorted := time.Now()
	slices.Sort(c.buf)
	end := time.Now()
	c.slice = append(c.slice, ms(end.Sub(sorted)))
	return end.Sub(start)
}

// burst runs the kernel setupProbes times.
func (c *calibrator) burst() {
	for i := 0; i < setupProbes; i++ {
		c.probe()
	}
}

// endSlice returns the factor that scales the slice's durations to the
// reference host speed, from the median of the slice's probes, and starts a
// new slice. A slice too short for any probe gets one now.
func (c *calibrator) endSlice() float64 {
	if len(c.slice) == 0 {
		c.probe()
	}
	_, m, _ := quartiles(c.slice)
	c.all = append(c.all, c.slice...)
	c.slice = c.slice[:0]
	return calRefMs / m
}

// discard drops the current slice's probes.
func (c *calibrator) discard() {
	c.slice = c.slice[:0]
}

func scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
