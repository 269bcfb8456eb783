// Benchmark-report parsing and comparison: the two-tree impact runner
// joins per-stage timings with these without shelling out, and
// `flare-impact -bench-parse` is the CLI over the parser.
package impact

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// BenchReport is the parsed benchmark document: every quantity is ns/op.
type BenchReport struct {
	// Benchmarks maps benchmark name, without the GOMAXPROCS suffix, to
	// its ns/op.
	Benchmarks map[string]float64 `json:"benchmarks"`
	// Stages maps a pipeline stage (e.g. "analyze.kmeans") to its mean
	// wall time in whole ns/op, parsed from the "-ms" custom metrics.
	Stages map[string]float64 `json:"stages"`
}

// procSuffix is the "-N" GOMAXPROCS suffix `go test` appends to a
// benchmark's name when N is not 1.
var procSuffix = regexp.MustCompile(`-[0-9]+$`)

// ParseBench scans `go test -bench` output. A line is
//
//	BenchmarkName  <iters>  <value> <unit>  <value> <unit> ...
//
// Units ending in "-ms" are stage metrics (milliseconds per op), kept
// rounded to whole nanoseconds; "ns/op" is the benchmark's own timing.
// Everything else is ignored. The name's "-N" GOMAXPROCS suffix is
// dropped, so the keys do not depend on the host's CPU count.
func ParseBench(r io.Reader) (*BenchReport, error) {
	rep := &BenchReport{
		Benchmarks: map[string]float64{},
		Stages:     map[string]float64{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %q: bad value %q", sc.Text(), fields[i])
			}
			unit := fields[i+1]
			switch {
			case unit == "ns/op":
				rep.Benchmarks[name] = v
			case strings.HasSuffix(unit, "-ms"):
				rep.Stages[strings.TrimSuffix(unit, "-ms")] = math.Round(v * 1e6)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return rep, nil
}

// WriteJSON emits deterministic JSON (encoding/json sorts map keys, plus
// a trailing newline) so the file diffs cleanly between runs.
func (rep *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// MinMerge folds repeated runs of the same suite into one report taking
// the per-key minimum — the classic noise separator: a key's true cost
// is at most its fastest observation, so re-running a flagged stage and
// min-merging squeezes scheduler noise out before re-judging it.
func MinMerge(reports ...*BenchReport) *BenchReport {
	out := &BenchReport{
		Benchmarks: map[string]float64{},
		Stages:     map[string]float64{},
	}
	fold := func(dst, src map[string]float64) {
		for k, v := range src {
			if cur, ok := dst[k]; !ok || v < cur {
				dst[k] = v
			}
		}
	}
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		fold(out.Benchmarks, rep.Benchmarks)
		fold(out.Stages, rep.Stages)
	}
	return out
}

// BenchComparison is the diff document (one row per key present in
// either report, sorted by name within each kind).
type BenchComparison struct {
	TolerancePct float64    `json:"tolerance_pct"`
	Regressions  int        `json:"regressions"`
	Rows         []BenchRow `json:"rows"`
}

// BenchRow compares one benchmark or stage across the two reports.
type BenchRow struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"` // "benchmark" or "stage"
	BaseNs   float64 `json:"base_ns,omitempty"`
	HeadNs   float64 `json:"head_ns,omitempty"`
	DeltaPct float64 `json:"delta_pct,omitempty"`
	Status   string  `json:"status"` // ok | regression | improved | added | removed
}

// CompareBench diffs base against head with the given tolerance (percent
// slowdown allowed before a key counts as a regression).
func CompareBench(base, head *BenchReport, tolerancePct float64) *BenchComparison {
	cmp := &BenchComparison{TolerancePct: tolerancePct}
	diffMap := func(kind string, b, h map[string]float64) {
		names := make(map[string]bool, len(b)+len(h))
		for n := range b {
			names[n] = true
		}
		for n := range h {
			names[n] = true
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		for _, n := range sorted {
			bv, inBase := b[n]
			hv, inHead := h[n]
			r := BenchRow{Name: n, Kind: kind, BaseNs: bv, HeadNs: hv}
			switch {
			case !inBase:
				r.Status = "added"
			case !inHead:
				r.Status = "removed"
			default:
				r.DeltaPct = 100 * (hv - bv) / bv
				switch {
				case r.DeltaPct > tolerancePct:
					r.Status = "regression"
					cmp.Regressions++
				case r.DeltaPct < -tolerancePct:
					r.Status = "improved"
				default:
					r.Status = "ok"
				}
			}
			cmp.Rows = append(cmp.Rows, r)
		}
	}
	diffMap("benchmark", base.Benchmarks, head.Benchmarks)
	diffMap("stage", base.Stages, head.Stages)
	return cmp
}

// Regressed returns the rows that count against the verdict.
func (c *BenchComparison) Regressed() []BenchRow {
	var out []BenchRow
	for _, r := range c.Rows {
		if r.Status == "regression" {
			out = append(out, r)
		}
	}
	return out
}

// WriteTable renders the comparison as an aligned text table. Only
// regressions and improvements get called out loudly; unchanged rows
// print so the table doubles as the full timing inventory.
func (c *BenchComparison) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-52s %14s %14s %9s  %s\n", "name", "base", "head", "delta", "status")
	for _, r := range c.Rows {
		switch r.Status {
		case "added":
			fmt.Fprintf(w, "%-52s %14s %14.0f %9s  added\n", r.Name, "-", r.HeadNs, "-")
		case "removed":
			fmt.Fprintf(w, "%-52s %14.0f %14s %9s  removed\n", r.Name, r.BaseNs, "-", "-")
		default:
			fmt.Fprintf(w, "%-52s %14.0f %14.0f %+8.1f%%  %s\n",
				r.Name, r.BaseNs, r.HeadNs, r.DeltaPct, r.Status)
		}
	}
	fmt.Fprintf(w, "\ntolerance: +%.0f%%; regressions: %d\n", c.TolerancePct, c.Regressions)
}
