package main

import (
	"hash/crc32"
	"sync"
	"time"
)

// RefNominalMS is what refLoop takes on the machine the benchmark was
// calibrated on (bench/CALIBRATION.md). Rates are multiplied by
// ref_ms/RefNominalMS and durations by RefNominalMS/ref_ms, so a normalised
// value equals the raw one when the machine runs at its nominal speed.
const RefNominalMS = 20.0

const (
	refGoroutines = 2
	refIters      = 18000 // per goroutine; sizes refLoop to about RefNominalMS
)

// refSink keeps refLoop's results alive so the compiler cannot drop the work.
var refSink [refGoroutines]uint32

// refLoop is the benchmark's yardstick of machine speed: a fixed amount of
// stdlib-only work (CRC-32 over 4 KiB, map lookups, small allocations) on two
// goroutines, timed in milliseconds. It shares no code with the program under
// test, so a change to the program cannot move it. It is frozen: editing it,
// refIters or RefNominalMS invalidates every recorded result.
func refLoop() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < refGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 4096)
			for i := range buf {
				buf[i] = byte(i * (g + 3))
			}
			m := make(map[uint32][]byte, 1024)
			for i := uint32(0); i < 1024; i++ {
				m[i*2654435761] = buf[:8]
			}
			var acc uint32
			for i := uint32(0); i < refIters; i++ {
				buf[i&4095] = byte(acc)
				acc += crc32.ChecksumIEEE(buf)
				for k := uint32(0); k < 16; k++ {
					acc += uint32(len(m[(i*16+k)%1024*2654435761]))
				}
				for k := uint32(0); k < 8; k++ {
					b := make([]byte, 64)
					b[0] = byte(acc)
					m[k*2654435761] = b
				}
			}
			refSink[g] = acc
		}(g)
	}
	wg.Wait()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// refMean times refLoop n times and returns the mean: the calibration beside a
// set-up, which lasts fifty times longer than one loop.
func refMean(n int) float64 {
	var sum float64
	for i := 0; i < n; i++ {
		sum += refLoop()
	}
	return sum / float64(n)
}
