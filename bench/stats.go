package main

import (
	"sort"
	"time"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of v (mean of the two middle values
// for an even count), 0 for an empty slice.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqr returns the distance between the first and third quartile of v as
// Python's statistics.quantiles(v, n=4) computes them (the "exclusive"
// method), so the harness and the acceptance check agree on a spread.
func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sorted(v)
	q := func(k int) float64 {
		m := len(s) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(3) - q(1)
}

// percentile returns the value below which the share p of v lies
// (nearest rank), 0 for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// opRec is one completed operation of a timed phase.
type opRec struct {
	end  time.Duration // completion, relative to the phase start
	lat  time.Duration // what the client observed
	msgs int           // messages the operation carried

	traced bool // ran step by step under spans (traced passes trace every other op)
}

// windows is how many equal slices a timed phase is cut into; the ISSUE
// fixes ten so drift inside a run is a number, not a surprise.
const windows = 10

// windowStats cuts ops into ten windows by completion time and returns
// each window's message rate (1/s) and median and mean latency (ms).
func windowStats(ops []opRec, span time.Duration) (rates, p50ms, meanMs []float64) {
	lat := make([][]float64, windows)
	msgs := make([]int, windows)
	w := span / windows
	for _, o := range ops {
		i := int(o.end / w)
		if i < 0 || i >= windows {
			continue
		}
		msgs[i] += o.msgs
		lat[i] = append(lat[i], float64(o.lat)/float64(time.Millisecond))
	}
	for i := 0; i < windows; i++ {
		rates = append(rates, float64(msgs[i])/w.Seconds())
		p50ms = append(p50ms, median(lat[i]))
		meanMs = append(meanMs, mean(lat[i]))
	}
	return rates, p50ms, meanMs
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// latenciesMs returns the client-observed latency of every op in ms.
func latenciesMs(ops []opRec) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = float64(o.lat) / float64(time.Millisecond)
	}
	return out
}
