// Prometheus text-exposition reader: the inverse of WritePrometheus,
// enough for a client to read a server's /metrics back into numbers —
// flare-loadgen cross-checks its own accounting against the server's
// counters with it, and flare-top renders its dashboard from it.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MetricSet holds parsed sample values: series name → rendered label
// block ("" for unlabelled) → value. A histogram family parses into its
// _bucket, _sum and _count series.
type MetricSet map[string]map[string]float64

// ParseMetrics reads a Prometheus text exposition (version 0.0.4) and
// returns every sample. Comment and blank lines are skipped; any other
// line that is not a well-formed sample is an error.
func ParseMetrics(r io.Reader) (MetricSet, error) {
	set := MetricSet{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		fam := set[name]
		if fam == nil {
			fam = map[string]float64{}
			set[name] = fam
		}
		fam[labels] = value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return set, nil
}

// parseSample splits `name{labels} value` (or `name value`). The label
// block is kept as rendered — sufficient for exact-match lookups — but
// must be scanned, not split on spaces, because label values may contain
// spaces and escaped quotes.
func parseSample(line string) (name, labels string, value float64, err error) {
	name, rest := line, ""
	if i := strings.IndexAny(line, "{ \t"); i >= 0 {
		name, rest = line[:i], line[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := closeBrace(rest)
		if end < 0 {
			return "", "", 0, fmt.Errorf("obs: unterminated label block in %q", line)
		}
		labels, rest = rest[:end+1], rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", 0, fmt.Errorf("obs: sample line %q has no value", line)
	}
	if value, err = strconv.ParseFloat(fields[0], 64); err != nil {
		return "", "", 0, fmt.Errorf("obs: sample line %q: %v", line, err)
	}
	return name, labels, value, nil
}

// closeBrace finds the index of the '}' closing the label block that
// opens block, honouring quoted values with backslash escapes.
func closeBrace(block string) int {
	inQuote := false
	for i := 1; i < len(block); i++ {
		switch block[i] {
		case '\\':
			if inQuote {
				i++ // skip the escaped byte
			}
		case '"':
			inQuote = !inQuote
		case '}':
			if !inQuote {
				return i
			}
		}
	}
	return -1
}

// Sum totals every series of a family; a missing family sums to 0.
func (m MetricSet) Sum(family string) float64 {
	var total float64
	for _, v := range m[family] {
		total += v
	}
	return total
}

// SumLabel totals the series of a family whose label block contains
// key="value" (exact rendered pair).
func (m MetricSet) SumLabel(family, key, value string) float64 {
	needle := key + `="` + escapeLabel(value) + `"`
	var total float64
	for labels, v := range m[family] {
		if strings.Contains(labels, needle) {
			total += v
		}
	}
	return total
}
