// This file is compiled into ./bench only through a build overlay
// (overlay.json beside it; make bench-profile), never from here: the go tool
// skips directories whose name starts with an underscore. It adds a CPU
// profile of the measured windows to the benchmark without touching bench/.
//
// With BENCH_PROFILE set to a file name, a run with -trace 0 profiles from the
// start of its last set-up to the end of its windows and writes the profile
// there. It finds both by the run's forced collections, read from
// runtime/metrics (no stack walks): every set-up after the first starts with
// runtime.GC, and so does the live-heap reading after the last window. The
// profile holds the last set-up and the refLoop calibrations between windows
// too; pprof's -focus on env.runWindow keeps the windows' workers alone.

package main

import (
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

func init() {
	path := os.Getenv("BENCH_PROFILE")
	if path == "" {
		return
	}
	go func() {
		if err := profileWindows(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench-profile:", err)
			os.Exit(2)
		}
	}()
}

// profileWindows profiles from the second forced collection (the last of
// bench's three set-ups begins) to the third (the windows have ended).
func profileWindows(path string) error {
	waitForcedGCs(2)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	waitForcedGCs(3)
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, "bench-profile: last set-up and measured windows in", path)
	return f.Close()
}

// waitForcedGCs returns once the program has called runtime.GC n times.
func waitForcedGCs(n uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
	for metrics.Read(s); s[0].Value.Uint64() < n; metrics.Read(s) {
		time.Sleep(time.Millisecond)
	}
}
