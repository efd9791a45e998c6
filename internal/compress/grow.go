package compress

// Capacity helpers for the append API. Callers own every buffer they
// pass in and get back; these only decide when and how much to grow.

// growCap returns b with at least n free bytes of capacity past
// len(b), reallocating (and copying the prefix) only when needed.
func growCap(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	grown := make([]byte, len(b), len(b)+n)
	copy(grown, b)
	return grown
}

// extendLen returns b lengthened by n bytes, growing capacity with
// append's amortized doubling (growCap grows exactly, which would turn
// a decode loop with incremental growth quadratic). The new bytes are
// uninitialized garbage; callers must overwrite all of them before
// letting the slice escape.
func extendLen(b []byte, n int) []byte {
	l := len(b)
	for cap(b)-l < n {
		b = append(b[:cap(b)], 0)
	}
	return b[:l+n]
}

// clampGrow converts a length-header claim into a safe pre-allocation
// size: at most bound, the largest output the input stream could
// actually encode. Corrupt headers then cost at most one bounded
// allocation before decoding detects the truncation.
func clampGrow(claim uint64, bound int) int {
	if bound < 0 {
		bound = 0
	}
	if claim > uint64(bound) {
		return bound
	}
	return int(claim)
}
