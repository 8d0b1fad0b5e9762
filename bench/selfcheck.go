package main

import (
	"fmt"
)

// selfCheck runs every workload n times on one seed and prints, per
// end-to-end metric, the spread (max-min)/median of the raw and of the
// normalised values. It fails when a normalised spread exceeds the metric's
// regression bound: a benchmark noisier than its own bound cannot gate
// anything. setup_s is reported but cannot fail the check: a run holds only
// three set-ups of about a second each, which on a machine whose speed wanders
// by 8 % from second to second leaves its median 5 % uncertain, and the driver
// exempts its spread for the same reason.
func selfCheck(run []*spec, seed int64, sh shape, n int) error {
	bad := 0
	for _, sp := range run {
		norms := map[string][]float64{}
		raws := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := measure(sp, seed, sh)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", sp.name, i+1, err)
			}
			if res.auditErr != nil || res.failed > 0 {
				return fmt.Errorf("%s run %d: %d of %d transactions failed: %v", sp.name, i+1, res.failed, res.attempted, res.auditErr)
			}
			norm, raw := res.metrics()
			fmt.Printf("%s run %d:", sp.name, i+1)
			for _, m := range endToEndMetrics {
				norms[m.name] = append(norms[m.name], norm[m.name])
				raws[m.name] = append(raws[m.name], raw[m.name])
				fmt.Printf(" %s=%.4f (raw %.4f)", m.name, norm[m.name], raw[m.name])
			}
			fmt.Println()
		}
		for _, m := range endToEndMetrics {
			s := spread(norms[m.name])
			verdict := "ok"
			if s > m.bound {
				verdict = "TOO NOISY"
				if m.name != "setup_s" {
					bad++
				}
			}
			fmt.Printf("%-11s %-12s median %14.4f %-4s spread raw %.4f normalised %.4f bound %.2f %s\n",
				sp.name, m.name, median(norms[m.name]), m.unit, spread(raws[m.name]), s, m.bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric spreads exceed their bound", bad)
	}
	return nil
}
