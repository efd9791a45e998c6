package compress

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"apbcc/internal/isa"
)

// groupCodecs returns every registered codec that supports group
// decode, trained like allCodecs.
func groupCodecs(t testing.TB) []GroupCodec {
	t.Helper()
	var out []GroupCodec
	for _, c := range allCodecs(t) {
		if gc, ok := AsGroupCodec(c); ok {
			out = append(out, gc)
		}
	}
	return out
}

// TestGroupCodecRegistry pins which codecs are group-capable: the
// word-pattern family supports random access, the entropy codecs do
// not.
func TestGroupCodecRegistry(t *testing.T) {
	want := map[string]bool{
		"bdi": true, "cpack": true, "dict": true, "identity": true,
		"huffman": false, "lzss": false,
	}
	for _, c := range allCodecs(t) {
		if _, ok := AsGroupCodec(c); ok != want[c.Name()] {
			t.Errorf("%s: group-capable = %v, want %v", c.Name(), ok, want[c.Name()])
		}
	}
}

// TestDecodeGroupMatchesFullDecode is the core group-decode contract:
// for every group-capable codec and a matrix of images, concatenating
// DecompressGroup over every group is byte-identical to the full
// DecompressAppend, and DecodeWordRange returns exactly the matching
// slice of the full decode for arbitrary word spans.
func TestDecodeGroupMatchesFullDecode(t *testing.T) {
	images := [][]byte{
		trainImage(t, 1),
		trainImage(t, 7),
		trainImage(t, 8),
		trainImage(t, 9),
		trainImage(t, 31),
		trainImage(t, 32),
		trainImage(t, 33),
		trainImage(t, 64),
		trainImage(t, 513),
		trainImage(t, 4096),
		make([]byte, 4096),
		bytes.Repeat([]byte{0xAB, 0xCD, 0xEF, 0x01}, 1024),
	}
	r := rand.New(rand.NewSource(99))
	for _, gc := range groupCodecs(t) {
		gc := gc
		t.Run(gc.Name(), func(t *testing.T) {
			gw := gc.GroupWords()
			if gw <= 0 || gw%2 != 0 {
				t.Fatalf("GroupWords = %d", gw)
			}
			for i, img := range images {
				comp, err := gc.CompressAppend(nil, img)
				if err != nil {
					t.Fatalf("image %d: %v", i, err)
				}
				full, err := gc.DecompressAppend(nil, comp)
				if err != nil {
					t.Fatalf("image %d: %v", i, err)
				}
				if !bytes.Equal(full, img) {
					t.Fatalf("image %d: round trip mismatch", i)
				}
				offs, err := gc.AppendGroupOffsets(nil, comp)
				if err != nil {
					t.Fatalf("image %d: AppendGroupOffsets: %v", i, err)
				}
				nWords := len(img) / isa.WordSize
				wantGroups := (nWords + gw - 1) / gw
				if len(offs) != wantGroups {
					t.Fatalf("image %d: %d offsets, want %d", i, len(offs), wantGroups)
				}
				// Concatenated group decodes == full decode.
				var cat []byte
				for g := 0; g < len(offs); g++ {
					end := len(comp)
					if g+1 < len(offs) {
						end = int(offs[g+1])
					}
					k := nWords - g*gw
					if k > gw {
						k = gw
					}
					cat, err = gc.DecompressGroup(cat, comp[offs[g]:end], k)
					if err != nil {
						t.Fatalf("image %d group %d: %v", i, g, err)
					}
				}
				if !bytes.Equal(cat, full) {
					t.Fatalf("image %d: concatenated groups != full decode (%d vs %d bytes)", i, len(cat), len(full))
				}
				// Random word spans through DecodeWordRange.
				for trial := 0; trial < 32 && nWords > 0; trial++ {
					word := r.Intn(nWords)
					nw := 1 + r.Intn(nWords-word)
					if trial == 0 {
						word, nw = 0, nWords // whole block
					}
					got, err := DecodeWordRange(nil, gc, comp, offs, nWords, word, nw)
					if err != nil {
						t.Fatalf("image %d: DecodeWordRange(%d,%d): %v", i, word, nw, err)
					}
					want := full[word*isa.WordSize : (word+nw)*isa.WordSize]
					if !bytes.Equal(got, want) {
						t.Fatalf("image %d: DecodeWordRange(%d,%d) mismatch", i, word, nw)
					}
				}
				// The dst prefix must be preserved.
				prefix := []byte{0xEE, 0xBB}
				if nWords > 0 {
					got, err := DecodeWordRange(append([]byte(nil), prefix...), gc, comp, offs, nWords, 0, 1)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], full[:isa.WordSize]) {
						t.Fatalf("image %d: DecodeWordRange clobbered dst prefix", i)
					}
				}
			}
		})
	}
}

// TestGroupDecodeRejectsBadRanges pins the error behavior: out-of-range
// spans, mismatched offset counts, and word-tail blocks.
func TestGroupDecodeRejectsBadRanges(t *testing.T) {
	img := trainImage(t, 100)
	for _, gc := range groupCodecs(t) {
		comp, err := gc.CompressAppend(nil, img)
		if err != nil {
			t.Fatal(err)
		}
		offs, err := gc.AppendGroupOffsets(nil, comp)
		if err != nil {
			t.Fatal(err)
		}
		nWords := len(img) / isa.WordSize
		for _, bad := range [][2]int{{-1, 1}, {0, 0}, {0, -1}, {nWords, 1}, {0, nWords + 1}, {nWords - 1, 2}} {
			if _, err := DecodeWordRange(nil, gc, comp, offs, nWords, bad[0], bad[1]); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: range (%d,%d): err = %v, want ErrCorrupt", gc.Name(), bad[0], bad[1], err)
			}
		}
		if _, err := DecodeWordRange(nil, gc, comp, offs[:len(offs)-1], nWords, 0, 1); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: short offsets: err = %v, want ErrCorrupt", gc.Name(), err)
		}
		// A block with a raw byte tail is not groupable.
		tcomp, err := gc.CompressAppend(nil, img[:len(img)-1])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gc.AppendGroupOffsets(nil, tcomp); !errors.Is(err, ErrUngroupable) {
			t.Errorf("%s: tail block: err = %v, want ErrUngroupable", gc.Name(), err)
		}
	}
}

// TestGroupOffsetScanRejectsHostile feeds corrupted payloads to the
// offset scanner: it must reject truncation and invalid tags with
// ErrCorrupt and never panic.
func TestGroupOffsetScanRejectsHostile(t *testing.T) {
	img := trainImage(t, 200)
	for _, gc := range groupCodecs(t) {
		comp, err := gc.CompressAppend(nil, img)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{1, len(comp) / 2, len(comp) - 1} {
			if _, err := gc.AppendGroupOffsets(nil, comp[:cut]); err == nil {
				// Identity has no framing to violate: any word-multiple
				// truncation is a valid (shorter) block.
				if gc.Name() != "identity" && cut != 1 {
					t.Errorf("%s: truncation at %d accepted", gc.Name(), cut)
				}
			} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrUngroupable) {
				t.Errorf("%s: truncation at %d: err = %v", gc.Name(), cut, err)
			}
		}
	}
}

// TestDecodeWordRangeAllocFree pins the steady-state allocation profile
// of the serving path: with a pre-sized dst, DecodeWordRange does not
// allocate.
func TestDecodeWordRangeAllocFree(t *testing.T) {
	img := trainImage(t, 4096)
	for _, gc := range groupCodecs(t) {
		comp, err := gc.CompressAppend(nil, img)
		if err != nil {
			t.Fatal(err)
		}
		offs, err := gc.AppendGroupOffsets(nil, comp)
		if err != nil {
			t.Fatal(err)
		}
		nWords := len(img) / isa.WordSize
		dst := make([]byte, 0, gc.GroupWords()*isa.WordSize*2)
		allocs := testing.AllocsPerRun(100, func() {
			out, err := DecodeWordRange(dst, gc, comp, offs, nWords, nWords/2, 1)
			if err != nil || len(out) != isa.WordSize {
				t.Fatalf("%s: %v (%d bytes)", gc.Name(), err, len(out))
			}
		})
		if allocs > 0 {
			t.Errorf("%s: DecodeWordRange allocs/op = %.1f, want 0", gc.Name(), allocs)
		}
	}
}

// FuzzGroupDecode is the differential fuzzer for group decode: on the
// compress side, the concatenation of group decodes must equal the full
// decode; on the hostile side, the offset scanner must never panic, and
// whenever the whole group pipeline accepts a payload the full decoder
// must accept it with identical output.
func FuzzGroupDecode(f *testing.F) {
	f.Add([]byte(nil), uint16(0), uint8(1))
	f.Add(trainImage(f, 65), uint16(3), uint8(5))
	f.Add(bytes.Repeat([]byte{0xA5, 0x00, 0x01, 0x02}, 40), uint16(9), uint8(2))
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, uint16(0), uint8(1))

	codecs := groupCodecs(f)
	f.Fuzz(func(t *testing.T, data []byte, word uint16, nw uint8) {
		for _, gc := range codecs {
			// Compress side: full equivalence on our own output.
			aligned := data[:len(data)/isa.WordSize*isa.WordSize]
			comp, err := gc.CompressAppend(nil, aligned)
			if err != nil {
				t.Fatalf("%s: CompressAppend: %v", gc.Name(), err)
			}
			offs, err := gc.AppendGroupOffsets(nil, comp)
			if err != nil {
				t.Fatalf("%s: AppendGroupOffsets on own output: %v", gc.Name(), err)
			}
			nWords := len(aligned) / isa.WordSize
			if nWords > 0 {
				w := int(word) % nWords
				n := 1 + int(nw)%(nWords-w)
				got, err := DecodeWordRange(nil, gc, comp, offs, nWords, w, n)
				if err != nil {
					t.Fatalf("%s: DecodeWordRange(%d,%d): %v", gc.Name(), w, n, err)
				}
				if !bytes.Equal(got, aligned[w*isa.WordSize:(w+n)*isa.WordSize]) {
					t.Fatalf("%s: DecodeWordRange(%d,%d) mismatch", gc.Name(), w, n)
				}
			}
			// Hostile side: the raw fuzz bytes as a compressed payload.
			hoffs, err := gc.AppendGroupOffsets(nil, data)
			if err != nil {
				continue // rejected, fine — must just not panic
			}
			full, ferr := gc.DecompressAppend(nil, data)
			var cat []byte
			gw := gc.GroupWords()
			ok := true
			for g := 0; g < len(hoffs) && ok; g++ {
				end := len(data)
				if g+1 < len(hoffs) {
					end = int(hoffs[g+1])
				}
				k := gw
				if ferr == nil {
					if k > len(full)/isa.WordSize-g*gw {
						k = len(full)/isa.WordSize - g*gw
					}
				}
				cat, err = gc.DecompressGroup(cat, data[hoffs[g]:end], k)
				if err != nil {
					ok = false
				}
			}
			if ok && len(hoffs) > 0 {
				if ferr != nil {
					t.Fatalf("%s: group pipeline accepted payload the full decoder rejects: %v", gc.Name(), ferr)
				}
				if !bytes.Equal(cat, full) {
					t.Fatalf("%s: hostile group concat != full decode", gc.Name())
				}
			}
		}
	})
}

// wordDecoders returns the group codecs whose DecompressAppend and
// DecompressGroup share one decoder: dict, bdi and cpack.
func wordDecoders(t testing.TB) []GroupCodec {
	t.Helper()
	var out []GroupCodec
	for _, gc := range groupCodecs(t) {
		if _, ok := gc.(wordDecoder); ok {
			out = append(out, gc)
		}
	}
	return out
}

// checkGroupDecodeEquivalence runs DecompressGroup and the reference
// group decoder on the same bytes and word count: both accept with
// identical output after an intact dst prefix, or both reject with
// ErrCorrupt.
func checkGroupDecodeEquivalence(t *testing.T, gc GroupCodec, comp []byte, words int, prefix []byte) {
	t.Helper()
	got, err := gc.DecompressGroup(append([]byte(nil), prefix...), comp, words)
	want, refErr := refDecompressGroup(t, gc, append([]byte(nil), prefix...), comp, words)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: %d bytes, %d words: err = %v, reference err = %v", gc.Name(), len(comp), words, err, refErr)
	}
	if err != nil {
		if !errors.Is(err, ErrCorrupt) || !errors.Is(refErr, ErrCorrupt) {
			t.Fatalf("%s: %d bytes, %d words: errors not ErrCorrupt: %v / %v", gc.Name(), len(comp), words, err, refErr)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: %d bytes, %d words: output differs from the reference", gc.Name(), len(comp), words)
	}
	if !bytes.Equal(got[:len(prefix)], prefix) {
		t.Fatalf("%s: DecompressGroup clobbered the dst prefix", gc.Name())
	}
}

// TestGroupDecodeEquivalenceGolden pins DecompressGroup of dict, bdi
// and cpack to their reference group decoders on every distinct group
// of TestDecodeGroupMatchesFullDecode's images: the group at every word
// count from 0 to GroupWords()+1, and at its own word count every
// truncation of it and it with one trailing byte.
func TestGroupDecodeEquivalenceGolden(t *testing.T) {
	images := [][]byte{
		trainImage(t, 1),
		trainImage(t, 7),
		trainImage(t, 8),
		trainImage(t, 9),
		trainImage(t, 31),
		trainImage(t, 32),
		trainImage(t, 33),
		trainImage(t, 64),
		trainImage(t, 513),
		trainImage(t, 4096),
		make([]byte, 4096),
		bytes.Repeat([]byte{0xAB, 0xCD, 0xEF, 0x01}, 1024),
	}
	prefix := []byte{0xEE, 0xBB}
	for _, gc := range wordDecoders(t) {
		gw := gc.GroupWords()
		type groupKey struct {
			words int
			bytes string
		}
		seen := make(map[groupKey]bool)
		for i, img := range images {
			comp, err := gc.CompressAppend(nil, img)
			if err != nil {
				t.Fatalf("%s image %d: %v", gc.Name(), i, err)
			}
			offs, err := gc.AppendGroupOffsets(nil, comp)
			if err != nil {
				t.Fatalf("%s image %d: %v", gc.Name(), i, err)
			}
			nWords := len(img) / isa.WordSize
			for g := range offs {
				end := len(comp)
				if g+1 < len(offs) {
					end = int(offs[g+1])
				}
				group := comp[offs[g]:end:end]
				k := min(nWords-g*gw, gw)
				key := groupKey{k, string(group)}
				if seen[key] {
					continue
				}
				seen[key] = true
				for words := 0; words <= gw+1; words++ {
					checkGroupDecodeEquivalence(t, gc, group, words, prefix)
				}
				for cut := 0; cut < len(group); cut++ {
					checkGroupDecodeEquivalence(t, gc, group[:cut], k, prefix)
				}
				checkGroupDecodeEquivalence(t, gc, append(group, 0xA5), k, prefix)
			}
		}
	}
}

// FuzzGroupDecodeEquivalence feeds arbitrary bytes with an arbitrary
// word count to DecompressGroup and to the reference group decoders of
// dict, bdi and cpack: both must accept or reject alike, a reject must
// be ErrCorrupt, and an accept must give the same bytes after an intact
// dst prefix.
func FuzzGroupDecodeEquivalence(f *testing.F) {
	codecs := wordDecoders(f)
	for _, gc := range codecs {
		comp, err := gc.CompressAppend(nil, trainImage(f, 65))
		if err != nil {
			f.Fatal(err)
		}
		offs, err := gc.AppendGroupOffsets(nil, comp)
		if err != nil {
			f.Fatal(err)
		}
		first := comp[offs[0]:offs[1]]
		gw := gc.GroupWords()
		f.Add(first, gw, uint8(2))
		f.Add(first[:len(first)-1], gw, uint8(0))
		f.Add(append(first[:len(first):len(first)], 0), gw-1, uint8(1))
		f.Add(comp[offs[len(offs)-1]:], 65%gw, uint8(3))
	}
	f.Add([]byte(nil), 0, uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, -1, uint8(1))
	f.Fuzz(func(t *testing.T, comp []byte, words int, prefixLen uint8) {
		prefix := bytes.Repeat([]byte{0xEE}, int(prefixLen)%17)
		for _, gc := range codecs {
			checkGroupDecodeEquivalence(t, gc, comp, words, prefix)
		}
	})
}
