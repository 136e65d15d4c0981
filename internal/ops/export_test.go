package ops

import (
	"maps"
	"slices"
)

// Kinds returns the registered operator kinds, sorted.
func Kinds() []string { return slices.Sorted(maps.Keys(registry)) }
