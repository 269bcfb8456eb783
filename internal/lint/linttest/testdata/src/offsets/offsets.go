// Package offsets exercises want+N / want-N line-offset expectations.
package offsets

// want+1 "flagged flagme"
func flagme() {}

func flagtoo() {} // want "flagged flagtoo"

func flagthree() {}

// want-2 "flagged flagthree"
