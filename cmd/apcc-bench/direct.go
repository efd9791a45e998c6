package main

import (
	"os"
	"slices"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/pack"
	"apbcc/internal/program"
	"apbcc/internal/store"
)

// pair is one (program, codec) the direct layer timings run on.
type pair struct {
	prog  *program.Program
	codec string
}

// directPairs lists the workload's own programs with their codecs: the
// containers it reads, or for pack-write the programs it posts.
func directPairs(w *workload, targets []*target, posts []*posted) []pair {
	var out []pair
	if w.packs {
		for i, p := range posts {
			out = append(out, pair{p.prog, packCodecs[i%len(packCodecs)]})
		}
		return out
	}
	for _, t := range targets {
		out = append(out, pair{t.prog, t.codec})
	}
	return out
}

// directTimings times the public functions beneath the serving path on
// the workload's blocks: every codec's CompressAppend and
// DecompressAppend, pack.Pack and pack.Unpack, and the store's
// VerifiedBlock and ReadWordRange. budget is split evenly across the
// measurements.
func directTimings(m map[string]float64, pairs []pair, budget time.Duration) error {
	per := budget / time.Duration(2*len(packCodecs)+4)
	var progs []*program.Program
	for _, p := range pairs {
		if !slices.Contains(progs, p.prog) {
			progs = append(progs, p.prog)
		}
	}
	blocks := make([][][]byte, len(progs))
	codes := make([][]byte, len(progs))
	var plainBytes int
	for i, p := range progs {
		var err error
		if blocks[i], err = p.AllBlockBytes(); err != nil {
			return err
		}
		if codes[i], err = p.CodeBytes(); err != nil {
			return err
		}
		plainBytes += len(codes[i])
	}

	buf := make([]byte, 0, 64<<10)
	for _, name := range packCodecs {
		codecs := make([]compress.Codec, len(progs))
		comps := make([][][]byte, len(progs))
		for i := range progs {
			c, err := compress.New(name, codes[i])
			if err != nil {
				return err
			}
			codecs[i] = c
			for _, b := range blocks[i] {
				comp, err := c.CompressAppend(nil, b)
				if err != nil {
					return err
				}
				comps[i] = append(comps[i], comp)
			}
		}
		enc, err := timeBatches(per, func() (err error) {
			for i, c := range codecs {
				for _, b := range blocks[i] {
					if buf, err = c.CompressAppend(buf[:0], b); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		dec, err := timeBatches(per, func() (err error) {
			for i, c := range codecs {
				for _, b := range comps[i] {
					if buf, err = c.DecompressAppend(buf[:0], b); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		m["compress."+name+".encode_mb_s"] = float64(plainBytes) / enc.Seconds() / 1e6
		m["compress."+name+".decode_mb_s"] = float64(plainBytes) / dec.Seconds() / 1e6
	}

	codecs := make([]compress.Codec, len(pairs))
	containers := make([][]byte, len(pairs))
	for i, p := range pairs {
		code, err := p.prog.CodeBytes()
		if err != nil {
			return err
		}
		if codecs[i], err = compress.New(p.codec, code); err != nil {
			return err
		}
		if containers[i], err = pack.Pack(p.prog, codecs[i]); err != nil {
			return err
		}
	}
	packT, err := timeBatches(per, func() error {
		for i, p := range pairs {
			if _, err := pack.Pack(p.prog, codecs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	unpackT, err := timeBatches(per, func() error {
		for i, p := range pairs {
			if _, _, _, err := pack.Unpack(p.prog.Name, containers[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["pack.pack_us"] = packT.Seconds() * 1e6 / float64(len(pairs))
	m["pack.unpack_us"] = unpackT.Seconds() * 1e6 / float64(len(pairs))
	return storeTimings(m, codecs, containers, per)
}

// storeTimings persists the containers to a scratch store and times
// block and word reads through the opened objects.
func storeTimings(m map[string]float64, codecs []compress.Codec, containers [][]byte, per time.Duration) error {
	dir, err := os.MkdirTemp("", "apcc-bench-direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	objs := make([]*store.Object, len(containers))
	for i, c := range containers {
		key, err := st.Put(c)
		if err != nil {
			return err
		}
		if objs[i], err = st.Open(key); err != nil {
			return err
		}
		defer objs[i].Close()
	}
	var comp, plain []byte
	var blockReads, wordReads int
	readBlocks, err := timeBatches(per, func() (err error) {
		blockReads = 0
		for i, o := range objs {
			for b := range o.Index().Blocks {
				if comp, plain, err = o.VerifiedBlock(codecs[i], b, comp[:0], plain[:0]); err != nil {
					return err
				}
				blockReads++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	readWords, err := timeBatches(per, func() (err error) {
		wordReads = 0
		for i, o := range objs {
			if !o.HasGroupIndex() {
				continue
			}
			for b, e := range o.Index().Blocks {
				words := e.Words
				word := words / 2
				if comp, plain, err = o.ReadWordRange(codecs[i], b, word, min(2, words-word), comp[:0], plain[:0]); err != nil {
					return err
				}
				wordReads++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["store.read_block_us"] = readBlocks.Seconds() * 1e6 / float64(blockReads)
	m["store.read_word_us"] = fratio(readWords.Seconds()*1e6, float64(wordReads))
	return nil
}

// timeBatches runs fn until budget has passed and at least five times,
// and returns the median duration of one run.
func timeBatches(budget time.Duration, fn func() error) (time.Duration, error) {
	var runs []time.Duration
	for start := time.Now(); len(runs) < 5 || time.Since(start) < budget; {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		runs = append(runs, time.Since(t0))
	}
	slices.Sort(runs)
	return runs[len(runs)/2], nil
}
