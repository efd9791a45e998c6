// Package compress provides the block codecs used by the
// access-pattern-based code compression runtime, together with the cycle
// cost models that the simulator charges for compression and
// decompression work.
//
// The paper treats the codec as a pluggable component (its contribution
// is *when* to compress/decompress, not *how*), so this package supplies
// a spectrum: a fast instruction-dictionary codec in the style of IBM
// CodePack and the selective-compression literature the paper cites,
// the C-Pack and base-delta-immediate word-pattern codecs, an LZSS
// codec, a shared-model canonical Huffman codec, and the identity codec
// used as the uncompressed baseline.
//
// Each codec registers itself once, in its own file, with a trainer
// (New builds it from a program image) and a model constructor
// (FromModel rebuilds it from the model a container stores). All codecs
// are deterministic and self-contained: decompressing a block's
// compressed form gives the block back with no out-of-band state beyond
// the codec value itself (trained codecs embed their model).
//
// # Buffer ownership
//
// The primary codec API is append-style: CompressAppend and
// DecompressAppend append their output to a caller-owned dst (which may
// be nil) and return the extended slice, exactly like the built-in
// append. The rules every codec obeys and every caller may rely on:
//
//   - dst[:len(dst)] is preserved verbatim; output is appended after it.
//   - dst must not alias src. The codecs read src while writing the
//     returned slice, so overlap corrupts output (and for LZSS,
//     back-references would read half-written data).
//   - The returned slice is owned by the caller; codecs retain no
//     reference to it or to src after returning.
//   - On error, the returned slice is nil and dst's backing array holds
//     undefined bytes past len(dst); reuse it only via dst[:0].
//   - MaxCompressedLen(n) bounds the bytes CompressAppend appends for an
//     n-byte src, so a dst with that much free capacity is never grown.
//     DecompressAppend has no static bound; it grows dst as needed
//     (bounded by the length header or the input size for the
//     header-less codecs).
//   - Codecs are safe for concurrent use after construction: training
//     happens in the factory and all per-call state is stack-local or
//     pooled internally.
//
// The package keeps no buffer pool: a caller allocates its dst once,
// sized from MaxCompressedLen or the known plain size, and a caller
// that repeats an operation passes the same dst[:0] back in.
// CompressAppend(nil, src) is the allocating form.
package compress

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"
	"unsafe"

	"apbcc/internal/faults"
)

// CostModel describes the cycle cost of running a codec on one block, as
// charged by the simulator: a fixed setup cost plus a per-byte cost, for
// each direction. Per-byte costs are applied to the *uncompressed* size,
// which is the number of bytes the (de)compressor must produce/consume
// on the critical path.
type CostModel struct {
	CompressFixed     int
	CompressPerByte   int
	DecompressFixed   int
	DecompressPerByte int
}

// CompressCycles returns the cycles to compress a block of n
// uncompressed bytes.
func (m CostModel) CompressCycles(n int) int64 {
	return int64(m.CompressFixed) + int64(m.CompressPerByte)*int64(n)
}

// DecompressCycles returns the cycles to decompress a block back to n
// uncompressed bytes.
func (m CostModel) DecompressCycles(n int) int64 {
	return int64(m.DecompressFixed) + int64(m.DecompressPerByte)*int64(n)
}

// Codec compresses and decompresses basic-block byte images. See the
// package comment for the buffer-ownership rules of the append forms.
type Codec interface {
	// Name identifies the codec (registry key).
	Name() string
	// CompressAppend appends the compressed form of src to dst and
	// returns the extended slice. Codecs may produce a form longer than
	// src for incompressible input; callers that care should compare
	// sizes. dst must not alias src.
	CompressAppend(dst, src []byte) ([]byte, error)
	// DecompressAppend appends the decompressed form of src to dst and
	// returns the extended slice, inverting CompressAppend. dst must
	// not alias src.
	DecompressAppend(dst, src []byte) ([]byte, error)
	// MaxCompressedLen bounds the bytes CompressAppend appends for an
	// n-byte input, for exact dst pre-sizing.
	MaxCompressedLen(n int) int
	// Cost returns the codec's cycle cost model.
	Cost() CostModel
}

// ErrCorrupt reports malformed compressed input.
var ErrCorrupt = errors.New("compress: corrupt input")

// FaultDecode is the failpoint consulted by the decode boundaries that
// feed served bytes (pack.VerifyBlock, the group-decode word path).
// It lives here rather than in pack so every decode entry point shares
// one site regardless of which layer drives it.
var FaultDecode = faults.Register("compress.decode")

// ErrUnknownCodec reports a codec name missing from the registry;
// callers branch on it with errors.Is.
var ErrUnknownCodec = errors.New("compress: unknown codec")

// codecEntry is one registered codec's name and two constructors:
// train builds it from a training image (the whole program's code,
// typically; codecs that need no training ignore it), fromModel from
// the serialized model a container stores. name is the string the codec
// registered under, which RegisteredName hands out.
type codecEntry struct {
	name      string
	train     func(train []byte) Codec
	fromModel func(model []byte) (Codec, error)
}

// registry holds every codec, keyed by name. Each codec's file fills it
// once, from init, through register.
var registry = map[string]codecEntry{}

// register installs a codec under a name. It panics on duplicates,
// mirroring database/sql conventions.
func register(name string, train func([]byte) Codec, fromModel func([]byte) (Codec, error)) {
	if _, dup := registry[name]; dup {
		panic("compress: codec registered twice: " + name)
	}
	registry[name] = codecEntry{name, train, fromModel}
}

// New builds a registered codec by name, training it on train. Training
// keeps no reference to train: the codec holds only its own model, so
// the caller may reuse the buffer at once (pack.Build packs into the
// buffer it trained from).
func New(name string, train []byte) (Codec, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownCodec, name, Names())
	}
	return e.train(train), nil
}

// FromModel rebuilds a codec from its name and serialized model.
func FromModel(name string, model []byte) (Codec, error) {
	e, ok := registry[name]
	if !ok {
		// The name typically comes from a container header, so an
		// unregistered codec means a corrupt or foreign container.
		return nil, fmt.Errorf("%w: codec %q is not registered", ErrCorrupt, name)
	}
	return e.fromModel(model)
}

// Registered reports whether a codec name is in the registry, without
// building it — a cheap precheck for request validation.
func Registered(name string) bool {
	_, ok := registry[name]
	return ok
}

// RegisteredName returns the registry's own copy of the codec name
// spelled by name, and whether one is registered. A container header
// parsed through it shares that string instead of allocating its own.
func RegisteredName(name []byte) (string, bool) {
	e, ok := registry[string(name)]
	return e.name, ok
}

// Names lists the registered codec names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ModelMarshaler is implemented by trained codecs whose model (the
// decompressor's side table) can be serialized into a deployable image.
type ModelMarshaler interface {
	// MarshalModel serializes the codec's trained state.
	MarshalModel() []byte
}

// MarshalModel extracts the serialized model of any codec: trained
// codecs provide their table, stateless ones an empty model.
func MarshalModel(c Codec) []byte {
	if m, ok := c.(ModelMarshaler); ok {
		return m.MarshalModel()
	}
	return nil
}

// DecoderBytes is the heap a codec rebuilt by FromModel holds to
// decode: huffman's struct and symbols, plus its 8 KiB flat decode table
// once a first decode has built it; dict's struct and words; cpack's
// struct with its seed words. bdi, lzss and identity hold nothing.
func DecoderBytes(c Codec) int64 {
	switch c := c.(type) {
	case *huffman:
		n := int64(unsafe.Sizeof(*c)) + int64(cap(c.symbols))
		if c.table.Load() != nil {
			n += int64(unsafe.Sizeof(huffTable{}))
		}
		return n
	case *dict:
		return int64(unsafe.Sizeof(*c)) + 4*int64(cap(c.words))
	case *cpack:
		return int64(unsafe.Sizeof(*c))
	}
	return 0
}

// Ratio returns compressedSize/originalSize; 1 means no saving. A zero
// original size yields 1.
func Ratio(original, compressed int) float64 {
	if original == 0 {
		return 1
	}
	return float64(compressed) / float64(original)
}

// BlockStats aggregates compression results over a set of blocks.
type BlockStats struct {
	Blocks               int
	OriginalBytes        int
	CompressedBytes      int
	IncompressibleBlocks int // blocks whose compressed form was not smaller

	CompressTime   time.Duration // fastest whole pass of CompressAppend over every block
	DecompressTime time.Duration // fastest whole pass of DecompressAppend over every payload

	// Patterns holds per-pattern-class selection counts and byte shares
	// when the codec is a PatternReporter (cpack, bdi); nil otherwise.
	Patterns PatternStats
}

// Ratio returns the aggregate compression ratio.
func (s BlockStats) Ratio() float64 { return Ratio(s.OriginalBytes, s.CompressedBytes) }

// CompressMBps returns the measured compression throughput in
// megabytes of uncompressed input per second; 0 when unmeasured.
func (s BlockStats) CompressMBps() float64 { return mbps(s.OriginalBytes, s.CompressTime) }

// DecompressMBps returns the measured decompression throughput in
// megabytes of uncompressed output per second; 0 when unmeasured.
func (s BlockStats) DecompressMBps() float64 { return mbps(s.OriginalBytes, s.DecompressTime) }

func mbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / (1 << 20)
}

// Measure compresses and decompresses every block with the codec,
// aggregating sizes and per-direction throughput. An untimed first
// pass compresses every block into one buffer and verifies each round
// trip against its source block. Throughput then comes from timed
// whole passes — every block compressed, then every payload
// decompressed — so no clock read lands between two blocks: suite
// blocks average under 64 bytes, and a per-block timer measures mostly
// the clock. See fastest for how many passes run.
func Measure(c Codec, blocks [][]byte) (BlockStats, error) {
	var s BlockStats
	var comp, plain []byte
	off := make([]int, 1, len(blocks)+1) // payload i is comp[off[i]:off[i+1]]
	for i, b := range blocks {
		var err error
		if comp, err = c.CompressAppend(comp, b); err != nil {
			return s, fmt.Errorf("compress: block %d: %w", i, err)
		}
		if plain, err = c.DecompressAppend(plain[:0], comp[off[i]:]); err != nil {
			return s, fmt.Errorf("compress: block %d: decompress: %w", i, err)
		}
		if !bytes.Equal(plain, b) {
			return s, fmt.Errorf("compress: block %d: %s round trip mismatch", i, c.Name())
		}
		off = append(off, len(comp))
		s.Blocks++
		s.OriginalBytes += len(b)
		s.CompressedBytes += off[i+1] - off[i]
		if off[i+1]-off[i] >= len(b) {
			s.IncompressibleBlocks++
		}
	}
	out := make([]byte, 0, len(comp))
	var err error
	s.CompressTime, err = fastest(func() (err error) {
		out = out[:0]
		for _, b := range blocks {
			if out, err = c.CompressAppend(out, b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return s, fmt.Errorf("compress: timed pass: %w", err)
	}
	s.DecompressTime, err = fastest(func() (err error) {
		for i := range blocks {
			if plain, err = c.DecompressAppend(plain[:0], comp[off[i]:off[i+1]]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return s, fmt.Errorf("compress: timed pass: decompress: %w", err)
	}
	// Pattern attribution is a separate untimed pass so the throughput
	// numbers above reflect the production compress path.
	if pr, ok := c.(PatternReporter); ok {
		for i, b := range blocks {
			var err error
			s.Patterns, err = pr.CountPatterns(b, s.Patterns)
			if err != nil {
				return s, fmt.Errorf("compress: block %d: patterns: %w", i, err)
			}
		}
	}
	return s, nil
}

// fastest runs pass at least 5 times and until 2 ms have gone by,
// and returns the shortest run: the pass least disturbed by the
// scheduler, the garbage collector and cold caches.
func fastest(pass func() error) (time.Duration, error) {
	var best time.Duration
	began := time.Now()
	for n := 0; n < 5 || time.Since(began) < 2*time.Millisecond; n++ {
		t0 := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		if d := time.Since(t0); n == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// identity is the no-op codec: the uncompressed baseline (zero cost,
// ratio 1).
type identity struct{}

func (identity) Name() string { return "identity" }

func (identity) MaxCompressedLen(n int) int { return n }

func (identity) CompressAppend(dst, src []byte) ([]byte, error) {
	return append(dst, src...), nil
}

func (identity) DecompressAppend(dst, src []byte) ([]byte, error) {
	return append(dst, src...), nil
}

func (identity) Cost() CostModel { return CostModel{} }

func init() {
	register("identity", func([]byte) Codec { return identity{} }, func([]byte) (Codec, error) { return identity{}, nil })
}
