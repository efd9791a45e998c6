package pack

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/isa"
	"apbcc/internal/program"
	"apbcc/internal/workloads"
)

// errClasses are the sentinels an Unpack error can wrap; two errors are
// of one class when errors.Is finds the same set of them in both.
var errClasses = []error{
	ErrBadMagic, ErrBadVersion, ErrCorrupt, ErrBadChecksum,
	compress.ErrCorrupt, compress.ErrUnknownCodec,
	isa.ErrBadOpcode, isa.ErrShortBuffer, cfg.ErrNoEntry,
}

// errClass is the set of errClasses err wraps, as a bit mask.
func errClass(err error) uint {
	var c uint
	for i, s := range errClasses {
		if errors.Is(err, s) {
			c |= 1 << i
		}
	}
	return c
}

// unpackDiff unpacks data with Unpack and refUnpack, and parses it with
// ParseIndex and refParseIndex, and describes the first difference: in
// whether each succeeds, in the class of a failure, or in what a
// success returns, Unpack's Layout held to the reference's index. It
// returns "" when there is none. Two differences are intended. Unpack
// wraps ErrCorrupt around the failures the reference returned with no
// corrupt sentinel (an instruction that does not decode, a program
// that does not validate). And the parser rejects the broken indexes
// the reference parsed (refBroken), which the reference's Unpack
// rejected only later, in whatever class the damage met there, or by
// panicking, so for those refUnpack is not run: Unpack and ParseIndex
// must fail with ErrCorrupt.
func unpackDiff(data []byte) string {
	ridx, rperr := refParseIndex(data)
	if rperr == nil && refBroken(ridx) {
		_, _, _, err := Unpack("equiv", data)
		_, perr := ParseIndex(data)
		if !errors.Is(err, ErrCorrupt) || !errors.Is(perr, ErrCorrupt) {
			return fmt.Sprintf("broken index: Unpack err %v, ParseIndex err %v, want ErrCorrupt", err, perr)
		}
		return ""
	}
	p, codec, info, err := Unpack("equiv", data)
	rp, rcodec, rinfo, rerr := refUnpack("equiv", data)
	if rerr != nil && !isCorrupt(rerr) && errors.Is(err, ErrCorrupt) {
		rerr = fmt.Errorf("%w: %w", ErrCorrupt, rerr)
	}
	if d := resultDiff("Unpack", err, rerr); d != "" {
		return d
	}
	if err == nil {
		if d := programDiff(p, rp); d != "" {
			return d
		}
		if codec.Name() != rcodec.Name() || !bytes.Equal(compress.MarshalModel(codec), compress.MarshalModel(rcodec)) {
			return fmt.Sprintf("codec %s, reference %s", codec.Name(), rcodec.Name())
		}
		// The reference's Info has no Layout; the Layout is held to the
		// reference's index below.
		got := *info
		got.Layout = Layout{}
		if !reflect.DeepEqual(got, *rinfo) {
			return fmt.Sprintf("info %+v, reference %+v", got, *rinfo)
		}
		// refUnpack succeeded, so its parse of the index did too.
		if d := layoutDiff(data, &info.Layout, ridx); d != "" {
			return d
		}
	}
	idx, err := ParseIndex(data)
	if d := resultDiff("ParseIndex", err, rperr); d != "" {
		return d
	}
	if err == nil && !refIndexEqual(idx, ridx) {
		return "ParseIndex differs from the reference's index"
	}
	return ""
}

// layoutDiff compares the Layout that Unpack returned for data with the
// reference's index of it: the block count, every block's payload slice
// (its place in data and its capped length), CRC, word count and group
// offsets, and a directory held at its exact size, nil when there is
// none.
func layoutDiff(data []byte, l *Layout, ref *refIndex) string {
	if len(l.Blocks) != len(ref.Blocks) || len(l.Groups) != refNumGroups(ref) ||
		cap(l.Groups) != len(l.Groups) || (l.Groups == nil) != (ref.GroupWords == 0) {
		return fmt.Sprintf("layout of %d blocks and %d groups (cap %d), reference %d blocks and %d %d-word groups",
			len(l.Blocks), len(l.Groups), cap(l.Groups), len(ref.Blocks), refNumGroups(ref), ref.GroupWords)
	}
	for i, e := range ref.Blocks {
		loc, pay := l.Blocks[i], l.Payload(data, i)
		if int64(loc.Off) != ref.PayloadBase+e.Off || int64(len(pay)) != e.Len || cap(pay) != len(pay) ||
			loc.CRC != e.CRC || int(loc.Words) != e.Words || !slices.Equal(l.GroupOffsets(i), refBlockGroupOffsets(ref, i)) {
			return fmt.Sprintf("layout block %d is %+v with a %d-byte payload, reference %+v at %d",
				i, loc, len(pay), e, ref.PayloadBase)
		}
	}
	return ""
}

// refBroken reports whether an index the reference accepted is one the
// parser rejects with ErrCorrupt: one that describes a container 32-bit
// layout offsets cannot address (over 4 GiB, or with a payload over
// 4 GiB whose length wrapped the reference's running offset), or whose
// group directory has an offset that a wrapping delta took below the
// one before it.
func refBroken(x *refIndex) bool {
	if x.PayloadBase+x.PayloadLen > math.MaxUint32 ||
		slices.ContainsFunc(x.Blocks, func(e IndexEntry) bool { return e.Len > math.MaxUint32 }) {
		return true
	}
	for i := range x.Blocks {
		offs := refBlockGroupOffsets(x, i)
		for g := 1; g < len(offs); g++ {
			if offs[g] <= offs[g-1] {
				return true
			}
		}
	}
	return false
}

// resultDiff compares an error with the reference's.
func resultDiff(what string, err, ref error) string {
	switch {
	case (err == nil) != (ref == nil):
		return fmt.Sprintf("%s: err %v, reference %v", what, err, ref)
	case errClass(err) != errClass(ref):
		return fmt.Sprintf("%s: err %v (class %#x), reference %v (class %#x)", what, err, errClass(err), ref, errClass(ref))
	}
	return ""
}

// programDiff compares two unpacked programs: name, entry, every
// block's ID, label, function and range, every succ and pred list in
// order, and the instructions.
func programDiff(p, ref *program.Program) string {
	g, rg := p.Graph, ref.Graph
	if p.Name != ref.Name || g.Entry() != rg.Entry() || g.NumBlocks() != rg.NumBlocks() {
		return fmt.Sprintf("program %s entry %d with %d blocks, reference %s entry %d with %d",
			p.Name, g.Entry(), g.NumBlocks(), ref.Name, rg.Entry(), rg.NumBlocks())
	}
	for i, b := range g.Blocks() {
		if rb := rg.Blocks()[i]; *b != *rb {
			return fmt.Sprintf("block %d is %+v, reference %+v", i, *b, *rb)
		}
		if !slices.Equal(g.Succs(b.ID), rg.Succs(b.ID)) || !slices.Equal(g.Preds(b.ID), rg.Preds(b.ID)) {
			return fmt.Sprintf("block %d edges differ from the reference's", i)
		}
	}
	if !slices.Equal(p.Ins, ref.Ins) {
		return "instructions differ from the reference's"
	}
	return ""
}

// equivContainer is one container the equivalence tests unpack.
type equivContainer struct {
	name string
	data []byte
}

// equivContainers packs every suite program and the first n generated
// programs under every codec.
func equivContainers(tb testing.TB, n int) []equivContainer {
	tb.Helper()
	var progs []*program.Program
	for _, name := range workloads.Names() {
		w, err := workloads.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		progs = append(progs, w.Program)
	}
	for i, src := range workloads.GeneratedAssembly(1, n) {
		p, err := program.FromAssembly(fmt.Sprintf("gen%d", i), src)
		if err != nil {
			tb.Fatal(err)
		}
		progs = append(progs, p)
	}
	var out []equivContainer
	for _, p := range progs {
		for _, name := range compress.Names() {
			data, err := Build(p, name)
			if err != nil {
				tb.Fatalf("%s/%s: %v", p.Name, name, err)
			}
			out = append(out, equivContainer{p.Name + "/" + name, data})
		}
	}
	return out
}

// TestUnpackMatchesReference holds Unpack and ParseIndex to the
// reference copies of their earlier form (unpack_ref_test.go) over
// every suite program and 64 generated programs under all six codecs.
// Every container must give the same program, codec and Info. Damaged
// copies must give the same outcome and error class: for crc32's six
// containers every truncation, every single-bit flip of the header and
// index and every 61st payload bit; for the other 444 containers every
// 101st truncation and bit, each container starting the stride at its
// own place. A flip may leave a container that still unpacks (an edge
// probability's low bits, a label); then both must return the same
// program. The whole sweep, every truncation and flip of every
// container, holds too but takes minutes.
func TestUnpackMatchesReference(t *testing.T) {
	for k, c := range equivContainers(t, 64) {
		if _, _, _, err := Unpack(c.name, c.data); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := unpackDiff(c.data); d != "" {
			t.Fatalf("%s: %s", c.name, d)
		}
		idx, err := ParseIndex(c.data)
		if err != nil {
			t.Fatal(err)
		}
		// sampled reports whether the sweep damages the container at
		// position i, a byte count or bit number; index is whether i
		// lies in the header and index.
		whole := strings.HasPrefix(c.name, "crc32/")
		sampled := func(i int, index bool) bool {
			if whole {
				return index || i%61 == 0
			}
			return (i+k)%101 == 0
		}
		for n := 0; n < len(c.data); n++ {
			if !sampled(n, true) {
				continue
			}
			if d := unpackDiff(c.data[:n]); d != "" {
				t.Fatalf("%s cut to %d of %d bytes: %s", c.name, n, len(c.data), d)
			}
		}
		mut := bytes.Clone(c.data)
		for bit := 0; bit < 8*len(c.data); bit++ {
			if !sampled(bit, bit < 8*int(idx.PayloadBase)) {
				continue
			}
			mut[bit/8] ^= 1 << (bit % 8)
			if d := unpackDiff(mut); d != "" {
				t.Fatalf("%s with bit %d of %d flipped: %s", c.name, bit, 8*len(c.data), d)
			}
			mut[bit/8] ^= 1 << (bit % 8)
		}
	}
}

// FuzzUnpackEquivalence holds Unpack and ParseIndex to the reference
// copies on arbitrary inputs, seeded with containers of every codec and
// the hostile shapes the other container tests build.
func FuzzUnpackEquivalence(f *testing.F) {
	for _, c := range equivContainers(f, 2) {
		f.Add(c.data)
	}
	blocks, edges := hugeCountContainers()
	f.Add(blocks)
	f.Add(edges)
	// Broken indexes that only the reference parses: one of a container
	// over 4 GiB, one whose payload lengths wrap the running offset round
	// to the 2 bytes that follow (the reference's Unpack panics on it),
	// and a group directory whose second offset wraps round below its
	// first.
	f.Add(claimedPayloads(nil, 1<<31, 1<<31))
	f.Add(claimedPayloads([]byte{0, 0}, 1<<63-1, 1<<63-1, 4))
	f.Add(craftV3(func(buf *bytes.Buffer) {
		writeUvarint(buf, 8)
		writeUvarint(buf, 40)
		writeUvarint(buf, 1<<64-30)
	}))
	f.Add([]byte("APCC"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := unpackDiff(data); d != "" {
			t.Fatal(d)
		}
	})
}
