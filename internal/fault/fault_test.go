package fault

import (
	"slices"
	"testing"
)

func TestFaultPlanScheduleFiresOnce(t *testing.T) {
	p := &Plan{Schedule: []Fault{{Site: PageRead, N: 3, Permanent: true}, {Site: LogAppend, N: 1}}}
	p.Arm()
	var hits []uint64
	for i := 0; i < 10; i++ {
		if f, ok := p.At(PageRead); ok {
			if !f.Permanent || f.Site != PageRead {
				t.Errorf("fired %+v, want the scheduled permanent read fault", f)
			}
			hits = append(hits, f.N)
		}
	}
	if len(hits) != 1 || hits[0] != 3 {
		t.Fatalf("read faults at occurrences %v, want [3]", hits)
	}
	if p.Seen(PageRead) != 10 || p.Fired(PageRead) != 1 || p.Fired(LogAppend) != 0 || p.Injected() != 1 {
		t.Errorf("seen %d, fired %d (log %d), injected %d", p.Seen(PageRead), p.Fired(PageRead),
			p.Fired(LogAppend), p.Injected())
	}
}

func TestFaultPlanDisarmedPassesThrough(t *testing.T) {
	var nilPlan *Plan
	if _, ok := nilPlan.At(PageWrite); ok || nilPlan.Injected() != 0 || nilPlan.TornWrites() != 0 {
		t.Fatal("a nil plan injected a fault")
	}
	nilPlan.Arm()
	nilPlan.Disarm()
	p := &Plan{Torn: true, Schedule: []Fault{{Site: PageWrite, N: 1}}}
	for s := Site(0); s < NumSites; s++ {
		p.Prob[s] = 1
	}
	for s := Site(0); s < NumSites; s++ {
		if _, ok := p.At(s); ok {
			t.Errorf("disarmed plan fired at %s", s)
		}
	}
	if p.Injected() != 0 || p.Seen(PageWrite) != 0 {
		t.Errorf("disarmed plan counted: injected %d, seen %d", p.Injected(), p.Seen(PageWrite))
	}
	p.Arm()
	if f, ok := p.At(PageWrite); !ok || f.N != 1 || p.TornWrites() != 0 {
		t.Errorf("armed plan: fault %+v %v, torn %d; the schedule counts from arming", f, ok, p.TornWrites())
	}
	if f, ok := p.At(PageWrite); !ok || !f.Torn || p.TornWrites() != 1 {
		t.Errorf("probabilistic write fault %+v %v not torn (torn %d)", f, ok, p.TornWrites())
	}
}

// TestFaultPlanSeeded: whether an occurrence faults is a function of (seed,
// site, index) alone, so equal seeds fire the same sequence however the
// sites interleave, and another seed fires another.
func TestFaultPlanSeeded(t *testing.T) {
	run := func(seed int64, reverse bool) (fires [2][]Fault) {
		p := &Plan{Seed: seed, Permanent: 0.5}
		p.Prob[PageRead], p.Prob[ConnDrop] = 0.3, 0.3
		p.Arm()
		sites := [2]Site{PageRead, ConnDrop}
		for i := 0; i < 400; i++ {
			for j := range sites {
				if reverse {
					j = 1 - j
				}
				if f, ok := p.At(sites[j]); ok {
					fires[j] = append(fires[j], f)
				}
			}
		}
		return fires
	}
	a, b, c := run(42, false), run(42, true), run(43, false)
	for j := range a {
		if len(a[j]) < 60 || len(a[j]) > 180 {
			t.Fatalf("%d faults in 400 draws at p=0.3", len(a[j]))
		}
		if !slices.Equal(a[j], b[j]) {
			t.Errorf("seed 42 fired differently when the sites interleaved differently")
		}
		if slices.Equal(a[j], c[j]) {
			t.Errorf("seeds 42 and 43 fired the same sequence")
		}
		perm := 0
		for _, f := range a[j] {
			if f.Permanent {
				perm++
			}
		}
		if perm == 0 || perm == len(a[j]) {
			t.Errorf("%d of %d faults permanent at share 0.5", perm, len(a[j]))
		}
	}
}
