package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The benchmark's host slows down and speeds up by 10–30% over tens of
// seconds as other tenants come and go, the same for every process and
// every pass; process CPU time tracks wall time exactly, so the slowdown is
// contention, not descheduling. To keep runs comparable, CPU-bound
// workloads time a fixed reference kernel between units of work and scale
// the times measured in between to the speed at which the kernel takes
// refKernelMS. The kernel is the benchmark's own code and allocates
// nothing, so no change to the program under test moves it.
const (
	// refKernelMS is the kernel's duration at reference speed: its median
	// over 221 runs on the host the committed baseline was measured on.
	refKernelMS = 437.0
	// calEvery is how much work a segment holds before it is closed by
	// another kernel run.
	calEvery = 2 * time.Second
)

// kernel is the reference computation: three sorts of 1M integers, whose
// 8 MiB working set feels the same cache and memory contention as the
// solver. Of the kernels tried, it tracked the drift best: over 10 runs per
// workload it cut the quartile spread of qps from 10–19% to 3–7%, while a
// smaller sort mixed with map lookups cut it only to 9%.
type kernel struct{ src, buf []int }

func newKernel() *kernel {
	r := rand.New(rand.NewSource(1))
	k := &kernel{src: make([]int, 1<<20), buf: make([]int, 1<<20)}
	for i := range k.src {
		k.src[i] = r.Int()
	}
	return k
}

// run times one execution of the kernel, in ms. It first finishes a full
// garbage collection, so the program's background collection cannot slow
// the kernel: a change to the program's allocation must not move the
// reference it is scaled by.
func (k *kernel) run() float64 {
	runtime.GC()
	start := time.Now()
	for i := 0; i < 3; i++ {
		copy(k.buf, k.src)
		sort.Ints(k.buf)
	}
	return ms(time.Since(start))
}

// speedo scales the times of one pass to reference speed, segment by
// segment. A segment is the work between two kernel runs; its factor is
// refKernelMS over the mean of the two. A nil *speedo leaves times raw.
type speedo struct {
	k  *kernel
	tl *tally

	kernelMS   float64 // kernel run opening the current segment
	segStart   time.Time
	lat0, job0 int       // tally sample counts when the segment opened
	wallMS     float64   // scaled wall of the closed segments
	kernelRuns []float64 // every kernel duration, for the run summary
}

// calibrate runs the kernel once and records its duration; 0 when s is
// nil.
func (s *speedo) calibrate() float64 {
	if s == nil {
		return 0
	}
	d := s.k.run()
	s.kernelRuns = append(s.kernelRuns, d)
	return d
}

// factor scales a time measured between kernel runs of a and b ms; 1 when
// s is nil.
func (s *speedo) factor(a, b float64) float64 {
	if s == nil {
		return 1
	}
	return refKernelMS / ((a + b) / 2)
}

// begin opens the pass's first segment.
func (s *speedo) begin(tl *tally) {
	if s == nil {
		return
	}
	s.tl, s.wallMS = tl, 0
	s.kernelMS = s.calibrate()
	s.open()
}

func (s *speedo) open() {
	s.segStart = time.Now()
	s.lat0, s.job0 = len(s.tl.latencyMS), len(s.tl.jobMS)
}

// unitDone is called between units of work; it closes the segment once it
// holds calEvery of work.
func (s *speedo) unitDone() {
	if s != nil && time.Since(s.segStart) >= calEvery {
		s.close()
		s.open()
	}
}

// close scales the segment's samples and adds its scaled wall.
func (s *speedo) close() {
	wall := ms(time.Since(s.segStart))
	next := s.calibrate()
	f := s.factor(s.kernelMS, next)
	s.kernelMS = next
	for i := s.lat0; i < len(s.tl.latencyMS); i++ {
		s.tl.latencyMS[i] *= f
	}
	for i := s.job0; i < len(s.tl.jobMS); i++ {
		s.tl.jobMS[i] *= f
	}
	s.wallMS += wall * f
}

// end closes the last segment and returns the pass's scaled wall.
func (s *speedo) end() float64 {
	s.close()
	return s.wallMS
}

// medianKernel is the median kernel duration of the run, in ms; 0 when s is
// nil.
func (s *speedo) medianKernel() float64 {
	if s == nil {
		return 0
	}
	return quantile(s.kernelRuns, 0.5)
}
