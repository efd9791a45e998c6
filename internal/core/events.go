package core

import (
	"fmt"

	"apbcc/internal/cfg"
)

// EventKind classifies runtime events. The golden figure tests assert
// exact event sequences against the paper's worked examples.
type EventKind uint8

// Runtime events.
const (
	// EvException: a fetch trapped into the exception handler.
	EvException EventKind = iota
	// EvDecompress: a unit was decompressed on demand.
	EvDecompress
	// EvPreDecompress: a background decompression was issued.
	EvPreDecompress
	// EvPrefetchHit: execution reached a unit whose prefetch was still
	// in flight.
	EvPrefetchHit
	// EvDelete: a unit's copy was discarded by the k-edge algorithm.
	EvDelete
	// EvPatch: one branch site was re-pointed.
	EvPatch
	// EvEvict: a unit was evicted to satisfy the memory budget.
	EvEvict
	// EvEnter: the execution thread entered a block.
	EvEnter
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvException:
		return "exception"
	case EvDecompress:
		return "decompress"
	case EvPreDecompress:
		return "pre-decompress"
	case EvPrefetchHit:
		return "prefetch-hit"
	case EvDelete:
		return "delete"
	case EvPatch:
		return "patch"
	case EvEvict:
		return "evict"
	case EvEnter:
		return "enter"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one entry of the runtime event log.
type Event struct {
	Kind  EventKind
	Block cfg.BlockID
	Unit  UnitID
	Clock int64 // edge count at which the event occurred
}

// String renders the event compactly, e.g. "3:decompress B2".
func (e Event) String() string {
	return fmt.Sprintf("%d:%s b%d", e.Clock, e.Kind, e.Block)
}
