package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// median returns the median of xs (the mean of the two middle values for
// an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLadder is the fixed set of percentiles a tail may be reported at, so
// runs with slightly different sample counts report the same percentile.
var tailLadder = []float64{99.9, 99.5, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
// At 10 a 30 s serve-mix run (about 900 to 1700 jobs on a 2-vCPU host)
// straddles the p99 step at 1000 samples, and a p99 backed by 10 to 17
// samples spread twice as far over seeds as p95; at 30 every run of 600 to
// 2999 samples reports p95, with a margin for a slower or faster host.
const minBeyond = 30

// Tail is a tail latency: the value at Percentile (nearest rank), the number
// of samples strictly beyond that rank, and the sample count. When no ladder
// percentile leaves minBeyond samples beyond it, the tail is the maximum
// (Percentile 100, Beyond 0).
type Tail struct {
	Value      float64
	Percentile float64
	Beyond     int
	N          int
}

// tail returns the highest ladder percentile of xs with at least minBeyond
// samples beyond it.
func tail(xs []float64) Tail {
	n := len(xs)
	if n == 0 {
		return Tail{}
	}
	s := sorted(xs)
	for _, p := range tailLadder {
		k := rank(p, n)
		if n-k >= minBeyond {
			return Tail{Value: s[k-1], Percentile: p, Beyond: n - k, N: n}
		}
	}
	return Tail{Value: s[n-1], Percentile: 100, Beyond: 0, N: n}
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// product is formed before dividing, and a rounding residue shaved off, so
// ladder values such as 99.5 give exact ranks.
func rank(p float64, n int) int {
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratioOr0 returns num/den, or 0 when den is 0.
func ratioOr0(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histQuantile estimates quantile q of a cumulative-bucket histogram by
// linear interpolation inside the bucket holding rank q*count, as
// Prometheus's histogram_quantile does. bounds are the upper bounds in
// increasing order, the last one +Inf; cum the cumulative counts. A
// quantile falling in the +Inf bucket reports the highest finite bound.
func histQuantile(q float64, bounds []float64, cum []uint64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	rank := q * float64(cum[len(cum)-1])
	lower, below := 0.0, uint64(0)
	for i, b := range bounds {
		if float64(cum[i]) >= rank {
			if math.IsInf(b, 1) {
				return lower
			}
			in := cum[i] - below
			if in == 0 {
				return b
			}
			return lower + (b-lower)*(rank-float64(below))/float64(in)
		}
		lower, below = b, cum[i]
	}
	return lower
}

// histTail applies the tail rule to a cumulative-bucket histogram: the
// highest ladder percentile with at least minBeyond observations beyond it,
// else the median.
func histTail(bounds []float64, cum []uint64) (value, percentile float64) {
	if len(cum) == 0 {
		return 0, 0
	}
	n := int(cum[len(cum)-1])
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			return histQuantile(p/100, bounds, cum), p
		}
	}
	return histQuantile(0.5, bounds, cum), 50
}

// deciles formats the 10th..90th percentiles of xs (nearest rank).
func deciles(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	s := sorted(xs)
	var b strings.Builder
	for p := 10; p <= 90; p += 10 {
		fmt.Fprintf(&b, " %.3g", s[rank(float64(p), len(s))-1])
	}
	return strings.TrimSpace(b.String())
}
