package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ParseSpec parses the -fault-spec flag grammar into rules:
//
//	spec   = clause { ";" clause }
//	clause = site "=" kind trigger [ ":" duration ]
//	trigger = "@" rate | "#" nth
//
// Examples:
//
//	store.wal.append=error@0.01            1% of WAL append calls fail
//	store.wal.append=latency@0.05:25ms     5% of append calls take +25ms
//	store.flush.publish=crash#2            2nd flush crashes mid-publish
//	dcsim.machine.fail=error@0.001         machines fail probabilistically
//
// A rate or nth counts calls of the site: store.wal.append is checked
// once per store Append or AppendBatch call, so a batch of records
// counts once, and fails or slows down whole.
//
// Clauses may also be separated by commas. Whitespace around clauses is
// ignored. An empty spec yields no rules.
func ParseSpec(spec string) ([]Rule, error) {
	var rules []Rule
	for _, clause := range strings.FieldsFunc(spec, func(r rune) bool {
		return r == ';' || r == ','
	}) {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		r, err := parseClause(clause)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// MustParseSpec is ParseSpec for tests and fixed specs; it panics on a
// syntax error.
func MustParseSpec(spec string) []Rule {
	rules, err := ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	return rules
}

func parseClause(clause string) (Rule, error) {
	site, rhs, ok := strings.Cut(clause, "=")
	if !ok || site == "" || rhs == "" {
		return Rule{}, fmt.Errorf("fault: clause %q is not site=kind@rate or site=kind#nth", clause)
	}
	r := Rule{Site: strings.TrimSpace(site)}

	// Optional trailing ":duration" (latency kinds only).
	if kindPart, durPart, has := strings.Cut(rhs, ":"); has {
		d, err := time.ParseDuration(durPart)
		if err != nil {
			return Rule{}, fmt.Errorf("fault: clause %q: bad duration %q: %v", clause, durPart, err)
		}
		r.Latency = d
		rhs = kindPart
	}

	kind, trigger := rhs, ""
	sep := strings.IndexAny(rhs, "@#")
	if sep < 0 {
		return Rule{}, fmt.Errorf("fault: clause %q needs a trigger (@rate or #nth)", clause)
	}
	kind, trigger = rhs[:sep], rhs[sep:]

	switch kind {
	case "error":
		r.Kind = KindError
	case "latency":
		r.Kind = KindLatency
	case "crash":
		r.Kind = KindCrash
	default:
		return Rule{}, fmt.Errorf("fault: clause %q: unknown kind %q (error|latency|crash)", clause, kind)
	}

	switch trigger[0] {
	case '@':
		rate, err := strconv.ParseFloat(trigger[1:], 64)
		if err != nil {
			return Rule{}, fmt.Errorf("fault: clause %q: bad rate %q: %v", clause, trigger[1:], err)
		}
		r.Rate = rate
	case '#':
		nth, err := strconv.ParseUint(trigger[1:], 10, 64)
		if err != nil || nth == 0 {
			return Rule{}, fmt.Errorf("fault: clause %q: bad call number %q", clause, trigger[1:])
		}
		r.Nth = nth
	}
	if err := r.Validate(); err != nil {
		return Rule{}, fmt.Errorf("%w (clause %q)", err, clause)
	}
	return r, nil
}
