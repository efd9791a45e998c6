// Package store is the corrupterr analyzer's golden fixture for the
// disk tier. Its import path ends in internal/store so the analyzer's
// package scoping matches it the same way it matches the real store:
// read/verify errors there decide whether an object is quarantined,
// so naked errors are just as dangerous as in the decoders.
package store

import (
	"errors"
	"fmt"

	"apbcc/internal/compress"
)

// Package-level sentinels are outside any function: never flagged.
var errClosed = errors.New("store: closed")

// ReadBlockRange mixes naked errors (flagged) with properly chained
// ones.
func ReadBlockRange(b []byte) error {
	if len(b) == 0 {
		return errors.New("store: empty object") // want `errors\.New in a decode path`
	}
	if b[0] > 3 {
		return fmt.Errorf("store: truncated object %d", b[0]) // want `fmt\.Errorf without %w in a decode path`
	}
	if b[0] == 2 {
		return fmt.Errorf("%w: object checksum mismatch", compress.ErrCorrupt)
	}
	return errClosed
}

// VerifyObject chains every rejection: nothing flagged.
func VerifyObject(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("%w: object shorter than header", compress.ErrCorrupt)
	}
	return nil
}

// Quarantine is not a decode-path name: free to mint plain errors.
func Quarantine(key string) error {
	if key == "" {
		return errors.New("store: empty key")
	}
	return nil
}
