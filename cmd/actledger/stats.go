package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of ds, or 0 for
// no samples. It sorts ds in place.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	k := int(math.Ceil(p*float64(len(ds)))) - 1
	return ds[max(k, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// quartiles returns the three quartile cut points of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the spread definition the
// benchmark's acceptance rule uses. With fewer than two values every cut
// point is the single value (or 0 for none).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), len(d)-1)
		delta := float64(i*m - j*n)
		q[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q[0], q[1], q[2]
}
