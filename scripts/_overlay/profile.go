// This file is compiled into ./bench only through a build overlay
// (overlay.json beside it; make bench-profile), never from here: the go tool
// skips directories whose name starts with an underscore. It adds a CPU
// profile of the measured windows to the benchmark without touching bench/.
// The overlay also replaces bench/main.go by a copy that make bench-profile
// generates with its main renamed benchMain; main here runs it and then waits
// for the profile, which a run would otherwise end before it is written.
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

// profiled is closed once the profile is written; nil without BENCH_PROFILE.
var profiled chan struct{}

func init() {
	path := os.Getenv("BENCH_PROFILE")
	if path == "" {
		return
	}
	profiled = make(chan struct{})
	go func() {
		if err := profileWindows(path); err != nil {
			fatalProfile(err)
		}
		close(profiled)
	}()
}

func main() {
	benchMain()
	if profiled == nil {
		return
	}
	if n := forcedGCs(); n < 3 {
		fatalProfile(fmt.Errorf("the run made %d forced collections, not the 3 that bound its windows (run it with -trace 0)", n))
	}
	<-profiled
}

func fatalProfile(err error) {
	fmt.Fprintln(os.Stderr, "bench-profile:", err)
	os.Exit(2)
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
	for forcedGCs() < n {
		time.Sleep(time.Millisecond)
	}
}

// forcedGCs is how many times the program has called runtime.GC.
func forcedGCs() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
