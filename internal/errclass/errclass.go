// Package errclass is the server's error taxonomy: every error that
// surfaces on the serving path is exactly one of transient, corrupt,
// or fatal, and the resilience machinery dispatches on that class.
//
//   - Transient errors are worth retrying: injected faults
//     (faults.ErrTransient), interrupted or timed-out syscalls, I/O
//     deadline misses. A request that meets one answers 503, which the
//     client may retry; nothing is quarantined.
//   - Corrupt errors mean the bytes themselves are wrong
//     (pack/compress/store ErrCorrupt chains). They are never
//     retried — rereading a bad object yields the same bad object —
//     and quarantine fires immediately.
//   - Fatal errors are everything else: unknown objects, closed
//     pools, cancelled contexts. No retry, no quarantine; the
//     request fails.
//
// Classification priority is corrupt > transient > fatal, so a
// corrupt error wrapped by a retryable transport layer still
// quarantines.
package errclass

import (
	"errors"
	"io"
	"os"
	"syscall"

	"apbcc/internal/compress"
	"apbcc/internal/faults"
	"apbcc/internal/pack"
	"apbcc/internal/store"
)

// Class is the triage bucket for a serving-path error.
type Class int

const (
	// Fatal is the default: not retryable, not quarantinable.
	Fatal Class = iota
	// Transient errors may succeed on retry.
	Transient
	// Corrupt errors mean bad bytes: quarantine, never retry.
	Corrupt
)

// String returns the lowercase class name (metrics label friendly).
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Corrupt:
		return "corrupt"
	default:
		return "fatal"
	}
}

// corruptSentinels are the chains that mean "the bytes are wrong".
// pack.ErrBadMagic/ErrBadVersion/ErrBadChecksum are distinct
// sentinels (not wrapped in pack.ErrCorrupt), so they are listed
// explicitly.
var corruptSentinels = []error{
	pack.ErrCorrupt,
	pack.ErrBadMagic,
	pack.ErrBadVersion,
	pack.ErrBadChecksum,
	compress.ErrCorrupt,
	store.ErrCorrupt,
}

// transientSentinels are error chains worth retrying. Scheduling
// hiccups (EINTR, EAGAIN) and deadline misses recover on their own;
// faults.ErrTransient is the injected stand-in for all of them.
var transientSentinels = []error{
	faults.ErrTransient,
	os.ErrDeadlineExceeded,
	syscall.EINTR,
	syscall.EAGAIN,
	syscall.ETIMEDOUT,
}

// Classify places err in exactly one class. A nil error is Fatal by
// convention — callers should not classify success.
func Classify(err error) Class {
	if err == nil {
		return Fatal
	}
	for _, s := range corruptSentinels {
		if errors.Is(err, s) {
			return Corrupt
		}
	}
	// Unexpected EOF from a short ReadAt means a truncated object
	// file: the bytes on disk are wrong, not the timing.
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return Corrupt
	}
	for _, s := range transientSentinels {
		if errors.Is(err, s) {
			return Transient
		}
	}
	// Everything else — context cancellation (the caller giving up),
	// fs.ErrNotExist (a stable miss), store.ErrNotFound, closed
	// pools — is Fatal: no retry, no quarantine.
	return Fatal
}

// IsTransient reports whether err is worth retrying.
func IsTransient(err error) bool { return Classify(err) == Transient }

// IsCorrupt reports whether err means bad bytes (quarantine, never
// retry).
func IsCorrupt(err error) bool { return Classify(err) == Corrupt }
