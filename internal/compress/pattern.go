package compress

import (
	"fmt"
	"strings"
)

// patternAcc is the per-class accumulator the word-pattern compressors
// fill during a counting pass.
type patternAcc struct {
	words int
	bytes int
}

// PatternCount is one pattern class's share of a compression run: how
// many source words the class absorbed and how many compressed bytes it
// produced. For cpack the byte count is the class payloads (the shared
// tag bytes appear under a synthetic "tags" class); for bdi it is the
// whole group encoding including the mode byte.
type PatternCount struct {
	Class string
	Words int
	Bytes int
}

// PatternStats is an ordered set of per-class counts. Order is the
// codec's class declaration order, so output is deterministic.
type PatternStats []PatternCount

// add merges words/bytes into the named class, appending it in order on
// first sight, and returns the (possibly grown) slice.
func (s PatternStats) add(class string, words, bytes int) PatternStats {
	for i := range s {
		if s[i].Class == class {
			s[i].Words += words
			s[i].Bytes += bytes
			return s
		}
	}
	return append(s, PatternCount{Class: class, Words: words, Bytes: bytes})
}

// TotalWords sums the words across classes.
func (s PatternStats) TotalWords() int {
	n := 0
	for _, c := range s {
		n += c.Words
	}
	return n
}

// TotalBytes sums the compressed bytes across classes.
func (s PatternStats) TotalBytes() int {
	n := 0
	for _, c := range s {
		n += c.Bytes
	}
	return n
}

// String renders the per-class selection counts and byte shares in one
// compact cell, e.g. "MMMM:61%w/34%B XXXX:22%w/58%B". Classes that
// never fired are omitted; an empty stats set renders as "-".
func (s PatternStats) String() string {
	tw, tb := s.TotalWords(), s.TotalBytes()
	var b strings.Builder
	for _, c := range s {
		if c.Words == 0 && c.Bytes == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		wp, bp := 0, 0
		if tw > 0 {
			wp = 100 * c.Words / tw
		}
		if tb > 0 {
			bp = 100 * c.Bytes / tb
		}
		fmt.Fprintf(&b, "%s:%d%%w/%d%%B", c.Class, wp, bp)
	}
	if b.Len() == 0 {
		return "-"
	}
	return b.String()
}

// PatternReporter is implemented by word-pattern codecs (cpack, bdi)
// that can attribute their compressed output to fixed pattern classes.
// CountPatterns runs a counting compression pass over src and merges
// the per-class totals into acc, returning the grown slice.
type PatternReporter interface {
	CountPatterns(src []byte, acc PatternStats) (PatternStats, error)
}

// Arbiter performs cost-aware per-block codec selection: each candidate
// codec compresses the block, and the block is charged its compressed
// size plus its modeled decompression cycles scaled by DecodeWeight —
// the same size-versus-decode-cost trade GreedyDual-Size makes in the
// cost-aware replacement policy (internal/policy), applied at pack
// time. The cheapest codec
// wins; ties go to the earlier candidate.
type Arbiter struct {
	// Codecs are the candidates, tried in order.
	Codecs []Codec
	// DecodeWeight converts modeled decompress cycles into compressed-
	// byte equivalents. 0 minimizes size alone; larger values favor
	// cheap-to-decode codecs for the same footprint.
	DecodeWeight float64
}

// Choice reports one arbitration outcome.
type Choice struct {
	Index         int   // index into Codecs of the winner
	CompressedLen int   // winner's compressed size for the block
	DecodeCycles  int64 // winner's modeled decompress cycles
}

// Choose compresses block with every candidate and returns the
// cheapest under the weighted score. scratch is optional reusable
// space (pass the previous call's second return to stay
// allocation-free across blocks).
func (a *Arbiter) Choose(block, scratch []byte) (Choice, []byte, error) {
	if len(a.Codecs) == 0 {
		return Choice{}, scratch, fmt.Errorf("compress: arbiter has no codecs")
	}
	best := Choice{Index: -1}
	bestScore := 0.0
	for i, c := range a.Codecs {
		var err error
		scratch, err = c.CompressAppend(scratch[:0], block)
		if err != nil {
			return Choice{}, scratch, fmt.Errorf("compress: arbiter: %s: %w", c.Name(), err)
		}
		cyc := c.Cost().DecompressCycles(len(block))
		score := float64(len(scratch)) + a.DecodeWeight*float64(cyc)
		if best.Index < 0 || score < bestScore {
			best = Choice{Index: i, CompressedLen: len(scratch), DecodeCycles: cyc}
			bestScore = score
		}
	}
	return best, scratch, nil
}
