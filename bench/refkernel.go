package main

import (
	"sort"
	"time"
)

// The sandbox this benchmark runs in shares its cores with other tenants, and
// its speed for this kind of code (branches, table look-ups, several
// independent dependency chains) moves by up to a third in phases that last
// minutes, while a plain dependent multiply chain keeps its speed within 3 %.
// One pass of the eval mix through an in-process handler took between 405 and
// 546 ms over fourteen minutes on an otherwise idle machine. No run length the
// driver's budget allows averages that out, so the generator measures the
// machine beside the program: between requests, every refPeriod, it times the
// fixed computation below, and the run's timing metrics are reported at the
// nominal machine speed: multiplied by refNominalMS over the kernel's time
// during the window. In that experiment the kernel followed the served work
// with a correlation of 0.93 over 20 s windows, and dividing by it took the
// spread between windows from 15.8 % to 4.8 %. README.md has the measurements.
//
// The kernel belongs to the benchmark, not to the program: a change to the
// program cannot move it, so a gain or a regression shows in the normalised
// figures exactly as in the raw ones, which are reported beside them.

var refTable = func() (t [1 << 16]uint32) {
	x := uint64(7)
	for i := range t {
		x = x*6364136223846793005 + 1442695040888963407
		t[i] = uint32(x >> 32)
	}
	return t
}()

// refSink keeps the compiler from dropping the kernel's work.
var refSink uint32

// refKernel runs refIters steps of integer work with data-dependent branches
// over a 256 KB table and returns how long they took. It allocates nothing.
func refKernel() time.Duration {
	start := time.Now()
	var a, b, c, d uint32 = 1, 2, 3, 4
	for i := 0; i < refIters; i++ {
		a = a*1664525 + 1013904223
		b ^= refTable[a>>16]
		if b&1 == 0 {
			c += b >> 3
		} else {
			c ^= a
		}
		d = d*22695477 + refTable[c&0xffff]
	}
	refSink += a + b + c + d
	return time.Since(start)
}

// refFactor is how much slower than nominal the machine ran during a window,
// from its kernel samples in milliseconds: timings are divided by it, rates
// multiplied. It is the samples' lower quartile: a sample beside which the
// servers' or the generator's collector happened to run reads up to twice as
// long and never shorter, while a slow phase of the machine moves them all.
func refFactor(samplesMS []float64) float64 {
	s := append([]float64(nil), samplesMS...)
	sort.Float64s(s)
	return percentile(s, 25) / refNominalMS
}
