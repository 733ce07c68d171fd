package main

import (
	"math"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// tailQ is the tail percentile op_p99_us reports for n samples: p99 when
// at least ten samples lie beyond it, else the highest of p97.5, p95 and
// p90 that has ten beyond it, else the median.
func tailQ(n int) float64 {
	for _, q := range []float64{0.99, 0.975, 0.95, 0.90} {
		if beyond(n, q) >= 10 {
			return q
		}
	}
	return 0.5
}

// beyond is how many of n samples rank above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// kindMedian summarizes each operation kind by its own median time, then
// returns the kind median that the middle operation falls in, with kinds
// ordered by median and weighted by their operation counts. For one kind
// it is the plain median. For a mix of kinds with distinct costs it stays
// inside a kind's distribution, where the pooled median can land in the
// sparse low tail of a kind and move with host noise more than the kinds
// themselves do.
func kindMedian(kinds map[string][]float64) float64 {
	type kindStat struct {
		med float64
		n   int
	}
	var ks []kindStat
	total := 0
	for _, v := range kinds {
		ks = append(ks, kindStat{median(v), len(v)})
		total += len(v)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].med < ks[j].med })
	seen := 0
	for _, k := range ks {
		if seen += k.n; 2*seen >= total {
			return k.med
		}
	}
	return 0
}

// median of xs (0 for no samples).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean of xs (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
