package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"sort"
)

// Set is a deduplicated collection of scenarios: the scenario population
// of a datacenter trace. IDs are assigned in insertion order.
type Set struct {
	scenarios []Scenario
	byKey     map[string]int
}

// NewSet returns an empty scenario set.
func NewSet() *Set {
	return &Set{byKey: make(map[string]int)}
}

// Add inserts a scenario, deduplicating by Key. If the combination is
// already present its Observed count grows instead; otherwise the scenario
// receives the next ID. Add returns the canonical ID either way.
func (set *Set) Add(s Scenario) int {
	key := s.Key()
	if id, ok := set.byKey[key]; ok {
		set.scenarios[id].Observed += s.Observed
		return id
	}
	id := len(set.scenarios)
	s.ID = id
	set.byKey[key] = id
	set.scenarios = append(set.scenarios, s)
	return id
}

// Clone returns an independent copy of the set: adding to either leaves
// the other unchanged.
func (set *Set) Clone() *Set {
	return &Set{scenarios: set.All(), byKey: maps.Clone(set.byKey)}
}

// Len returns the number of distinct scenarios.
func (set *Set) Len() int { return len(set.scenarios) }

// Get returns the scenario with the given ID.
func (set *Set) Get(id int) (Scenario, error) {
	if id < 0 || id >= len(set.scenarios) {
		return Scenario{}, fmt.Errorf("scenario: id %d out of range [0, %d)", id, len(set.scenarios))
	}
	return set.scenarios[id], nil
}

// All returns a copy of the scenarios in ID order.
func (set *Set) All() []Scenario {
	out := make([]Scenario, len(set.scenarios))
	copy(out, set.scenarios)
	return out
}

// TotalObserved returns the sum of Observed counts across scenarios.
func (set *Set) TotalObserved() int {
	var n int
	for _, s := range set.scenarios {
		n += s.Observed
	}
	return n
}

// WithJob returns the IDs of scenarios containing the named job,
// ascending.
func (set *Set) WithJob(job string) []int {
	var out []int
	for _, s := range set.scenarios {
		if s.HasJob(job) {
			out = append(out, s.ID)
		}
	}
	return out
}

// SortedByOccupancy returns scenario IDs sorted by ascending vCPU
// occupancy (ties broken by ID), the ordering of the paper's Figure 3a.
func (set *Set) SortedByOccupancy() []int {
	ids := make([]int, len(set.scenarios))
	for i := range ids {
		ids[i] = i
	}
	sort.SliceStable(ids, func(a, b int) bool {
		va, vb := set.scenarios[ids[a]].VCPUs(), set.scenarios[ids[b]].VCPUs()
		if va != vb {
			return va < vb
		}
		return ids[a] < ids[b]
	})
	return ids
}

// WriteJSON serialises the set as a JSON array of scenarios.
func (set *Set) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(set.scenarios); err != nil {
		return fmt.Errorf("scenario: encoding set: %w", err)
	}
	return nil
}

// ReadJSON deserialises a set written by WriteJSON, rebuilding the key
// index and reassigning IDs in array order.
func ReadJSON(r io.Reader) (*Set, error) {
	var scenarios []Scenario
	if err := json.NewDecoder(r).Decode(&scenarios); err != nil {
		return nil, fmt.Errorf("scenario: decoding set: %w", err)
	}
	set := NewSet()
	for _, s := range scenarios {
		canonical, err := New(s.Placements)
		if err != nil {
			return nil, fmt.Errorf("scenario: invalid scenario in input: %w", err)
		}
		canonical.Observed = s.Observed
		if canonical.Observed < 1 {
			canonical.Observed = 1
		}
		set.Add(canonical)
	}
	return set, nil
}
