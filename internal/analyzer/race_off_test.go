//go:build !race

package analyzer

const raceEnabled = false
