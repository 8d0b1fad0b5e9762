//go:build claims

// The throughput claims are medians of timed runs: minutes, not seconds, so
// they stay out of the tier-1 suite. make claims runs them.

package figures

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/tamix"
	"repro/internal/tx"
)

// claimRuns is how many seeds each configuration of the throughput claims is
// run with; a claim compares medians over them.
const claimRuns = 5

// TestThroughputClaims asserts claims 1, 5, 7 and 8 of EXPERIMENTS.md on
// CLUSTER1 at repeatable read, at the scale EXPERIMENTS.md reports (-doc 0.1
// -time 0.01: a 200-book document, 3-second runs, 72 transactions). Each
// configuration runs with claimRuns seeds. "A beats B" means A's median exceeds
// B's by more than the larger interquartile range of the two; "A holds B"
// means A's median is at most that range below B's — the margin is the
// measured spread, not a constant. Claim 8's "readers flat" compares shares:
// what readers keep of their depth-5 throughput at depth 1 must beat what
// writers keep (measured at HEAD: readers lose about a fifth, writers almost
// all of it).
func TestThroughputClaims(t *testing.T) {
	o := Options{DocScale: 0.1, TimeScale: 0.01, Runs: 1}
	type cell struct {
		proto string
		depth int
	}
	cells := []cell{{"taDOM3+", 1}, {"taDOM3+", 3}, {"taDOM3+", 5}, {"URIX", 5}, {"Node2PLa", 5}}
	runs := map[cell][]*tamix.Result{}
	for _, c := range cells {
		for run := 0; run < claimRuns; run++ {
			o.Seed = int64(run)
			r, err := runCluster1(c.proto, tx.LevelRepeatable, c.depth, o)
			if err != nil {
				t.Fatalf("%s at depth %d, run %d: %v", c.proto, c.depth, run, err)
			}
			runs[c] = append(runs[c], r)
		}
	}
	total := func(r *tamix.Result) float64 { return r.Throughput() }
	readers := func(r *tamix.Result) float64 { return perType(r, tamix.TAqueryBook) }
	writers := func(r *tamix.Result) float64 {
		return perType(r, tamix.TAchapter) + perType(r, tamix.TAlendAndReturn)
	}
	series := func(c cell, what string, f func(*tamix.Result) float64) sample {
		s := sample{name: fmt.Sprintf("%s %s@%d", what, c.proto, c.depth)}
		for _, r := range runs[c] {
			s.xs = append(s.xs, f(r))
		}
		return s
	}
	d1, d3, d5 := cell{"taDOM3+", 1}, cell{"taDOM3+", 3}, cell{"taDOM3+", 5}
	urix, n2pla := cell{"URIX", 5}, cell{"Node2PLa", 5}

	t.Run("1_KneeThenPlateau", func(t *testing.T) {
		beats(t, series(d3, "total", total), series(d1, "total", total))
		holds(t, series(d5, "total", total), series(d3, "total", total))
	})
	t.Run("5_TaDOMWins", func(t *testing.T) {
		holds(t, series(d5, "total", total), series(urix, "total", total))
		beats(t, series(d5, "total", total), series(n2pla, "total", total))
	})
	t.Run("7_GroupGaps", func(t *testing.T) {
		beats(t, series(urix, "total", total), series(n2pla, "total", total))
	})
	t.Run("8_ReadersFlatWritersFromDepth2", func(t *testing.T) {
		// Readers carry the shallow depths: the share of their depth-5
		// throughput they keep at depth 1 is far above the writers' share.
		beats(t, ratio(series(d1, "readers", readers), series(d5, "readers", readers)), ratio(series(d1, "writers", writers), series(d5, "writers", writers)))
		beats(t, series(d3, "writers", writers), series(d1, "writers", writers))
		for _, c := range []cell{d1, d3, d5} {
			for i, r := range runs[c] {
				if n := r.PerType[tamix.TAqueryBook].Aborted; n != 0 {
					t.Errorf("%s@%d run %d: %d TAqueryBook aborts; readers must not abort", c.proto, c.depth, i, n)
				}
			}
		}
	})
}

// perType is one transaction type's committed transactions, normalised to
// the paper's 5-minute interval like Result.Throughput.
func perType(r *tamix.Result, typ tamix.TxType) float64 {
	return float64(r.PerType[typ].Committed) * 300 / r.Elapsed.Seconds()
}

// ratio divides a by b seed by seed.
func ratio(a, b sample) sample {
	r := sample{name: a.name + "/" + b.name}
	for i := range a.xs {
		r.xs = append(r.xs, a.xs[i]/b.xs[i])
	}
	return r
}

// sample is one configuration's values over its seeds.
type sample struct {
	name string
	xs   []float64
}

// quartiles returns the first quartile, the median and the third quartile.
func (s sample) quartiles() (q1, med, q3 float64) {
	xs := slices.Clone(s.xs)
	slices.Sort(xs)
	at := func(p float64) float64 {
		i := p * float64(len(xs)-1)
		lo := int(i)
		if lo+1 == len(xs) {
			return xs[lo]
		}
		return xs[lo] + (i-float64(lo))*(xs[lo+1]-xs[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func (s sample) String() string {
	q1, med, q3 := s.quartiles()
	return fmt.Sprintf("%s %.4g [%.4g, %.4g]", s.name, med, q1, q3)
}

// margin is the larger interquartile range of a and b.
func margin(a, b sample) float64 {
	aq1, _, aq3 := a.quartiles()
	bq1, _, bq3 := b.quartiles()
	return max(aq3-aq1, bq3-bq1)
}

// beats fails unless a's median exceeds b's by more than the margin.
func beats(t *testing.T, a, b sample) {
	t.Helper()
	_, am, _ := a.quartiles()
	_, bm, _ := b.quartiles()
	m := margin(a, b)
	t.Logf("%v vs %v: %+.1f %%, margin %.3g", a, b, (am/bm-1)*100, m)
	if am-bm <= m {
		t.Errorf("%v does not beat %v by more than the margin %.3g", a, b, m)
	}
}

// holds fails when a's median is more than the margin below b's.
func holds(t *testing.T, a, b sample) {
	t.Helper()
	_, am, _ := a.quartiles()
	_, bm, _ := b.quartiles()
	m := margin(a, b)
	t.Logf("%v vs %v: %+.1f %%, margin %.3g", a, b, (am/bm-1)*100, m)
	if bm-am > m {
		t.Errorf("%v falls below %v by more than the margin %.3g", a, b, m)
	}
}
