// Package clean has no violations: the smoke test asserts apcc-lint
// exits 0 over it.
package clean

import (
	"fmt"

	"lintfixture/internal/compress"
)

// ParseLen rejects an empty input with an error that chains to
// ErrCorrupt.
func ParseLen(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("%w: empty input", compress.ErrCorrupt)
	}
	return len(b), nil
}
