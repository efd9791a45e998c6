package compress

import (
	"bytes"
	"testing"
)

// FuzzAppendRoundTrip checks, for every registered codec, that
// DecompressAppend(CompressAppend(src)) == src and that both append
// forms preserve an arbitrary pre-existing dst prefix instead of
// clobbering or re-reading it (the LZSS window, for example, must not
// back-reference into the prefix).
func FuzzAppendRoundTrip(f *testing.F) {
	f.Add([]byte(nil), uint8(0))
	f.Add([]byte("hello, embedded world"), uint8(7))
	f.Add(bytes.Repeat([]byte{0xA5}, 40), uint8(1))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4}, 64), uint8(32))
	f.Add(trainImage(f, 99), uint8(16))

	codecs := allCodecs(f)
	f.Fuzz(func(t *testing.T, data []byte, prefixLen uint8) {
		prefix := bytes.Repeat([]byte{0xEE}, int(prefixLen)%33)
		for _, c := range codecs {
			dst := append([]byte(nil), prefix...)
			comp, err := c.CompressAppend(dst, data)
			if err != nil {
				t.Fatalf("%s: CompressAppend: %v", c.Name(), err)
			}
			if !bytes.Equal(comp[:len(prefix)], prefix) {
				t.Fatalf("%s: CompressAppend clobbered the dst prefix", c.Name())
			}
			payload := comp[len(prefix):]

			dst2 := append([]byte(nil), prefix...)
			plain, err := c.DecompressAppend(dst2, payload)
			if err != nil {
				t.Fatalf("%s: DecompressAppend: %v", c.Name(), err)
			}
			if !bytes.Equal(plain[:len(prefix)], prefix) {
				t.Fatalf("%s: DecompressAppend clobbered the dst prefix", c.Name())
			}
			if !bytes.Equal(plain[len(prefix):], data) {
				t.Fatalf("%s: round trip mismatch: %d bytes out, %d in",
					c.Name(), len(plain)-len(prefix), len(data))
			}
		}
	})
}

// FuzzDecompressAppendHostile feeds arbitrary bytes to every codec's
// decompressor with a non-empty dst prefix: it must either error or
// terminate normally, and in both cases leave the prefix intact — never
// panic, hang, or over-allocate on corrupt length headers.
func FuzzDecompressAppendHostile(f *testing.F) {
	f.Add([]byte{0xA5}, uint8(4))
	f.Add([]byte{0x01, 0xFF, 0xFF}, uint8(9))
	f.Add([]byte{200}, uint8(2))
	// 2^63 length header: regression seed for the int(n) sign-wrap
	// panic in dict/huffman.
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, uint8(3))

	codecs := allCodecs(f)
	f.Fuzz(func(t *testing.T, payload []byte, prefixLen uint8) {
		prefix := bytes.Repeat([]byte{0xEE}, int(prefixLen)%33)
		for _, c := range codecs {
			dst := append([]byte(nil), prefix...)
			out, err := c.DecompressAppend(dst, payload)
			if err != nil {
				continue
			}
			if !bytes.Equal(out[:len(prefix)], prefix) {
				t.Fatalf("%s: hostile input clobbered the dst prefix", c.Name())
			}
		}
	})
}
