package main

import (
	"math/bits"
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is a small virtual machine on a shared
// box, and its processors change speed from one second to the next: the
// same loop takes 1, 1.6 or 2 units of time depending on what the
// neighbours do, for seconds or for minutes at a stretch, and a run's
// throughput follows (README.md, "How steady it is"). So beside each
// measurement the harness measures the host: a speedometer goroutine
// runs a fixed piece of arithmetic every samplePeriod and times it. How
// much longer than refKernel it took, over a phase, is the phase's host
// slowdown, and every gated timing is reported at reference speed: the
// time measured ÷ the slowdown, the rate measured × the slowdown.
//
// The kernel is no code of this repository — an optimisation of ff or
// pairing must not speed the ruler up with the thing it measures — but
// it is the same kind of work: 512-bit multiply-and-carry chains, which
// a busy sibling hyperthread slows the way it slows the pairing.
const (
	samplePeriod = 10 * time.Millisecond
	// refKernel is about what kernel takes on this class of host (Xeon
	// 2.1 GHz) when nothing shares the core (513 µs at best); it fixes the
	// scale, nothing else.
	refKernel    = 500 * time.Microsecond
	kernelRounds = 6000
)

var kernelSink uint64

// kernel is kernelRounds schoolbook products of two 8-limb numbers, each
// feeding the next.
func kernel() {
	a := [8]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 3, 5, 7, 11, 0x7fffffffffffffff}
	b := a
	for r := 0; r < kernelRounds; r++ {
		var p [16]uint64
		for i := 0; i < 8; i++ {
			var carry uint64
			for j := 0; j < 8; j++ {
				hi, lo := bits.Mul64(a[i], b[j])
				var c uint64
				lo, c = bits.Add64(lo, carry, 0)
				hi += c
				p[i+j], c = bits.Add64(p[i+j], lo, 0)
				carry = hi + c
			}
			p[i+8] = carry
		}
		for i := 0; i < 8; i++ {
			b[i] = p[i] ^ p[i+8] | 1
		}
	}
	kernelSink += b[0]
}

// speedometer times kernel every samplePeriod until stopped. A nil
// speedometer measures nothing and reports a slowdown of 1.
type speedometer struct {
	quit, done chan struct{}

	mu      sync.Mutex
	samples []time.Duration
}

func startSpeedometer() *speedometer {
	s := &speedometer{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
			t := time.Now()
			kernel()
			d := time.Since(t)
			s.mu.Lock()
			s.samples = append(s.samples, d)
			s.mu.Unlock()
		}
	}()
	return s
}

// stop ends the sampling and waits for the goroutine.
func (s *speedometer) stop() {
	if s == nil {
		return
	}
	close(s.quit)
	<-s.done
}

// mark is a position in the sample series: two of them bound a phase.
func (s *speedometer) mark() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// slowdown is how much slower than reference speed the host ran between
// two marks: the mean kernel time of that stretch ÷ refKernel, leaving
// out the slowest tenth of the samples, which are the ones the kernel
// spent partly off the processor. Without samples it is 1.
func (s *speedometer) slowdown(from, to int) float64 {
	if s == nil {
		return 1
	}
	s.mu.Lock()
	v := append([]time.Duration(nil), s.samples[from:to]...)
	s.mu.Unlock()
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	v = v[:len(v)-len(v)/10]
	if len(v) == 0 {
		return 1
	}
	var sum time.Duration
	for _, d := range v {
		sum += d
	}
	return float64(sum) / float64(len(v)) / float64(refKernel)
}
