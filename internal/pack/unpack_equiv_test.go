package pack

import (
	"bytes"
	"errors"
	"fmt"
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
// success returns. It returns "" when there is none.
func unpackDiff(data []byte) string {
	p, codec, info, err := Unpack("equiv", data)
	rp, rcodec, rinfo, rerr := refUnpack("equiv", data)
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
		if *info != *rinfo {
			return fmt.Sprintf("info %+v, reference %+v", *info, *rinfo)
		}
	}
	idx, err := ParseIndex(data)
	ridx, rerr := refParseIndex(data)
	if d := resultDiff("ParseIndex", err, rerr); d != "" {
		return d
	}
	if err == nil && !refIndexEqual(idx, ridx) {
		return "ParseIndex differs from the reference's index"
	}
	return ""
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
	f.Add([]byte("APCC"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if d := unpackDiff(data); d != "" {
			t.Fatal(d)
		}
	})
}
