package tamix

import (
	"encoding/json"
	"io"
	"sort"
	"time"

	"repro/internal/metrics"
)

// Report is the machine-readable form of one TaMix run: what the slot driver
// counted itself (commits, aborts, restarts, durations per type) plus the
// run's registry snapshot — every engine statistic under the name its layer
// registered — shaped for JSON. Fields use stable snake_case names — scripts
// parse this, so renaming a field is a breaking change (the schema test pins
// the layout).
type Report struct {
	Protocol   string  `json:"protocol"`
	Isolation  string  `json:"isolation"`
	Depth      int     `json:"depth"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	Throughput float64 `json:"throughput_tx_per_5min"`

	Committed     int     `json:"committed"`
	Aborted       int     `json:"aborted"`
	Restarts      int     `json:"restarts"`
	RestartWaitMS float64 `json:"restart_wait_ms"`
	Dropped       int     `json:"dropped"`

	PerType map[string]TypeReport `json:"per_type"`

	// Latencies maps histogram names (lock.wait, buffer.fix_miss,
	// wal.force, tx.commit, ...) to their percentile digests.
	Latencies map[string]metrics.LatencySummary `json:"latencies,omitempty"`
	// Counters carries the registry's counter values: lock.deadlocks,
	// lock.requests, lock.waits, buffer.retries, fault.injected,
	// tx.committed, … (lock.*, buffer.*, wal.*, tx.*, fault.* namespaces).
	Counters map[string]uint64 `json:"counters"`
}

// TypeReport is the per-transaction-type slice of a Report.
type TypeReport struct {
	Committed int     `json:"committed"`
	Aborted   int     `json:"aborted"`
	Restarts  int     `json:"restarts"`
	Dropped   int     `json:"dropped"`
	AvgMS     float64 `json:"avg_ms"`
	// MinMS/MaxMS are zero when the type never committed (MinDur's -1
	// "unset" sentinel is not exported; absence of commits is visible in
	// Committed).
	MinMS float64 `json:"min_ms"`
	MaxMS float64 `json:"max_ms"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Report converts the Result into its JSON form.
func (r *Result) Report() *Report {
	rep := &Report{
		Protocol:      r.Protocol,
		Isolation:     r.Isolation.String(),
		Depth:         r.Depth,
		ElapsedMS:     ms(r.Elapsed),
		Throughput:    r.Throughput(),
		Committed:     r.Committed,
		Aborted:       r.Aborted,
		Restarts:      r.Restarts,
		RestartWaitMS: ms(r.RestartWait),
		Dropped:       r.Dropped,
		PerType:       map[string]TypeReport{},
		Latencies:     map[string]metrics.LatencySummary{},
		Counters:      map[string]uint64{},
	}
	for typ, st := range r.PerType {
		tr := TypeReport{
			Committed: st.Committed,
			Aborted:   st.Aborted,
			Restarts:  st.Restarts,
			Dropped:   st.Dropped,
			AvgMS:     ms(st.AvgDur()),
			MaxMS:     ms(st.MaxDur),
		}
		if st.MinDur >= 0 {
			tr.MinMS = ms(st.MinDur)
		}
		rep.PerType[typ.String()] = tr
	}
	for _, name := range r.Metrics.HistogramNames() {
		rep.Latencies[name] = r.Metrics.Summary(name)
	}
	if r.Metrics != nil {
		for name, v := range r.Metrics.Counters {
			rep.Counters[name] = v
		}
	}
	return rep
}

// WriteJSON writes the report as one indented JSON document.
func (rep *Report) WriteJSON(w io.Writer) error { return writeJSON(w, rep) }

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ContestReport is the run report of a whole contest: every protocol's
// Report, ranked by throughput — the machine-readable twin of the table
// `tamix -fig contest` prints.
type ContestReport struct {
	// DocScale and TimeScale echo the contest's scaling knobs.
	DocScale  float64 `json:"doc_scale"`
	TimeScale float64 `json:"time_scale"`
	Depth     int     `json:"depth"`
	Seed      int64   `json:"seed"`
	// Results is ordered by rank (descending throughput).
	Results []RankedReport `json:"results"`
}

// RankedReport is one contest row.
type RankedReport struct {
	Rank  int    `json:"rank"`
	Group string `json:"group"`
	*Report
}

// Rank sorts the reports by throughput (descending, stable) and assigns
// ranks starting at 1.
func (c *ContestReport) Rank() {
	sort.SliceStable(c.Results, func(i, j int) bool {
		return c.Results[i].Throughput > c.Results[j].Throughput
	})
	for i := range c.Results {
		c.Results[i].Rank = i + 1
	}
}

// WriteJSON writes the contest report as one indented JSON document.
func (c *ContestReport) WriteJSON(w io.Writer) error { return writeJSON(w, c) }
