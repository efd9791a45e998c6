package compress

import (
	"encoding/binary"
	"fmt"
)

// ModelMarshaler is implemented by trained codecs whose model (the
// decompressor's side table) can be serialized into a deployable image.
// Untrained codecs marshal an empty model.
type ModelMarshaler interface {
	// MarshalModel serializes the codec's trained state.
	MarshalModel() []byte
}

// modelUnmarshalers rebuilds codecs from serialized models, keyed by
// codec name.
var modelUnmarshalers = map[string]func(model []byte) (Codec, error){}

// RegisterModel installs a model unmarshaler for a codec name.
func RegisterModel(name string, f func(model []byte) (Codec, error)) {
	if _, dup := modelUnmarshalers[name]; dup {
		panic("compress: RegisterModel called twice for " + name)
	}
	modelUnmarshalers[name] = f
}

// FromModel rebuilds a codec from its name and serialized model.
func FromModel(name string, model []byte) (Codec, error) {
	f, ok := modelUnmarshalers[name]
	if !ok {
		// The name typically comes from a container header, so an
		// unregistered codec means a corrupt or foreign container.
		return nil, fmt.Errorf("%w: codec %q has no model unmarshaler", ErrCorrupt, name)
	}
	return f(model)
}

// MarshalModel extracts the serialized model of any codec: trained
// codecs provide their table, stateless ones an empty model.
func MarshalModel(c Codec) []byte {
	if m, ok := c.(ModelMarshaler); ok {
		return m.MarshalModel()
	}
	return nil
}

// --- dict model: uvarint count, then count little-endian words. ------

// MarshalModel implements ModelMarshaler for the dictionary codec.
func (d *dict) MarshalModel() []byte {
	out := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+4*len(d.words)), uint64(len(d.words)))
	for _, w := range d.words {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

func dictFromModel(model []byte) (Codec, error) {
	n, hdr := binary.Uvarint(model)
	if hdr <= 0 || n > DictSize {
		return nil, fmt.Errorf("%w: bad dict model header", ErrCorrupt)
	}
	model = model[hdr:]
	if len(model) != int(n)*4 {
		return nil, fmt.Errorf("%w: dict model wants %d words, has %d bytes", ErrCorrupt, n, len(model))
	}
	d := &dict{words: make([]uint32, n)}
	for i := 0; i < int(n); i++ {
		d.words[i] = binary.LittleEndian.Uint32(model[i*4:])
	}
	// Decode-side state only: the compressor's word->slot map is built
	// lazily if this codec ever compresses.
	return d, nil
}

// --- huffman model: the 256 code lengths. -----------------------------

// MarshalModel implements ModelMarshaler for the Huffman codec.
func (h *huffman) MarshalModel() []byte {
	out := make([]byte, 256)
	copy(out, h.lengths[:])
	return out
}

func huffmanFromModel(model []byte) (Codec, error) {
	if len(model) != 256 {
		return nil, fmt.Errorf("%w: huffman model wants 256 lengths, has %d", ErrCorrupt, len(model))
	}
	h := &huffman{}
	for i, l := range model {
		if l == 0 || l > maxCodeLen {
			return nil, fmt.Errorf("%w: huffman model length %d for symbol %d", ErrCorrupt, l, i)
		}
		h.lengths[i] = l
	}
	// Kraft check BEFORE building tables: the lengths must form a
	// prefix code, or canonical code assignment overflows its length
	// slots — buildCanonical's flat-table fill indexes by code, so a
	// Kraft-violating model must be rejected here, not trusted to
	// panic later. (Any violating sum exceeds 1 by at least 2^-16, so
	// the float tolerance can never admit an overflowing model.)
	sum := 0.0
	for _, l := range h.lengths {
		sum += 1 / float64(uint64(1)<<l)
	}
	if sum > 1.0000001 {
		return nil, fmt.Errorf("%w: huffman model violates Kraft inequality", ErrCorrupt)
	}
	h.buildCanonical()
	return h, nil
}

// --- stateless codecs: empty models. ----------------------------------

func init() {
	RegisterModel("dict", dictFromModel)
	RegisterModel("huffman", huffmanFromModel)
	RegisterModel("identity", func([]byte) (Codec, error) { return NewIdentity(), nil })
	RegisterModel("rle", func([]byte) (Codec, error) { return NewRLE(), nil })
	RegisterModel("lzss", func([]byte) (Codec, error) { return NewLZSS(), nil })
}
