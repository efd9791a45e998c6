// Package compress stubs the repo's compress package: the fixtures wrap
// its ErrCorrupt as the real decode paths do, without importing the
// real (heavier) package.
package compress

import "errors"

var ErrCorrupt = errors.New("compress: corrupt input")
