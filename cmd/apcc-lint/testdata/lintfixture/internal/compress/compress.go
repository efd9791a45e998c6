// Package compress gives the smoke-test fixture module an ErrCorrupt
// sentinel, which the clean package wraps as the repo's decode paths
// wrap theirs.
package compress

import "errors"

var ErrCorrupt = errors.New("compress: corrupt input")
