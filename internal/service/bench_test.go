package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"apbcc/internal/cfg"
	"apbcc/internal/compress"
	"apbcc/internal/obs"
	"apbcc/internal/pack"
	"apbcc/internal/program"
	"apbcc/internal/store"
)

// BenchmarkServeBlock measures the hot serving path: cached block
// fetches over real HTTP from parallel clients.
func BenchmarkServeBlock(b *testing.B) {
	for _, codec := range []string{"dict", "lzss", "identity", "cpack", "bdi"} {
		b.Run(codec, func(b *testing.B) {
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer func() { ts.Close(); s.Close() }()
			url := ts.URL + "/v1/block/fft/2?codec=" + codec
			warm, err := ts.Client().Get(url) // build entry + fill cache
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, warm.Body)
			warm.Body.Close()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				client := &http.Client{Transport: ts.Client().Transport}
				for pb.Next() {
					resp, err := client.Get(url)
					if err != nil {
						b.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						b.Errorf("status %d", resp.StatusCode)
						return
					}
				}
			})
		})
	}
}

// BenchmarkBlockCache measures the cache in isolation: hits on a
// resident key from parallel goroutines.
func BenchmarkBlockCache(b *testing.B) {
	c := NewBlockCache(16, 1<<20)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = BlockAddress("dict", nil, []byte{byte(i)})
		c.GetOrCompute(keys[i], func() ([]byte, error) { return make([]byte, 64), nil })
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, err := c.GetOrCompute(keys[i%len(keys)], nil); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkPool measures job submission overhead through the batching
// pool.
func BenchmarkPool(b *testing.B) {
	p := NewPool(4, 256, 8)
	defer p.Close()
	noop := func() error { return nil }
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := p.Do(context.Background(), noop); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPackContainer measures cold container builds (no cache) per
// codec.
func BenchmarkPackContainer(b *testing.B) {
	for _, codec := range []string{"dict", "lzss", "huffman", "cpack", "bdi"} {
		b.Run(codec, func(b *testing.B) {
			s, err := New(Config{})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer func() { ts.Close(); s.Close() }()
			src := `
				start:
					addi r1, r0, 10
				loop:
					addi r1, r1, -1
					bne  r1, r0, loop
					halt
			`
			for i := 0; i < b.N; i++ {
				resp, err := ts.Client().Post(
					fmt.Sprintf("%s/v1/pack?name=bench&codec=%s", ts.URL, codec),
					"text/plain", strings.NewReader(src))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		})
	}
}

// BenchmarkBlockSource prices the two ways a block fetch is satisfied:
// an L1 cache hit (plain, with a nil trace sink, and traced) and an L1
// miss, whose compute is a zero-copy slice of the entry's resident
// container followed by the cache fill.
func BenchmarkBlockSource(b *testing.B) {
	// Suite blocks are tens of words; synthesize production-sized blocks
	// (16 KiB each), as BenchmarkWordRead does.
	g := cfg.New()
	const nblocks, words = 8, 4096
	ids := make([]cfg.BlockID, nblocks)
	for i := range ids {
		ids[i] = g.AddBlock(fmt.Sprintf("b%d", i), words)
	}
	if err := g.SetEntry(ids[0]); err != nil {
		b.Fatal(err)
	}
	for i := 0; i+1 < len(ids); i++ {
		g.MustAddEdge(ids[i], ids[i+1], cfg.EdgeJump, 1)
	}
	prog, err := program.Synthesize("bigblocks", g, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, codecName := range []string{"dict", "lzss", "cpack", "bdi"} {
		code, err := prog.CodeBytes()
		if err != nil {
			b.Fatal(err)
		}
		codec, err := compress.New(codecName, code)
		if err != nil {
			b.Fatal(err)
		}
		container, err := pack.Pack(prog, codec)
		if err != nil {
			b.Fatal(err)
		}
		idx, err := pack.ParseIndex(container)
		if err != nil {
			b.Fatal(err)
		}
		plain, err := prog.AllBlockBytes()
		if err != nil {
			b.Fatal(err)
		}
		id := len(plain) / 2
		img := plain[id]
		off := idx.PayloadBase + idx.Blocks[id].Off
		payload := container[off : off+idx.Blocks[id].Len]

		b.Run(codecName+"/l1-hit", func(b *testing.B) {
			c := NewBlockCache(1, 1<<20)
			k := BlockAddress(codecName, nil, img)
			c.GetOrCompute(k, func() ([]byte, error) { return img, nil })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, hit, _ := c.GetOrCompute(k, nil); !hit {
					b.Fatal("not a hit")
				}
			}
		})
		b.Run(codecName+"/l1-hit-nosink", func(b *testing.B) {
			// The context-carrying entry point with tracing disabled (no
			// trace in the context): must match l1-hit — zero allocations
			// and within noise on ns/op. This is what every request pays
			// when the operator runs without -trace.
			c := NewBlockCache(1, 1<<20)
			k := BlockAddress(codecName, nil, img)
			ctx := context.Background()
			c.GetOrComputeCost(ctx, k, func() ([]byte, int64, error) { return img, 1, nil })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, hit, _ := c.GetOrComputeCost(ctx, k, nil); !hit {
					b.Fatal("not a hit")
				}
			}
		})
		b.Run(codecName+"/l1-hit-traced", func(b *testing.B) {
			// Full per-request tracing: trace from the recorder pool, span
			// around the hit, finish + record back into the ring. The
			// delta over l1-hit-nosink is the whole observability tax.
			c := NewBlockCache(1, 1<<20)
			k := BlockAddress(codecName, nil, img)
			rec := obs.NewRecorder(256, 8)
			c.GetOrComputeCost(context.Background(), k, func() ([]byte, int64, error) { return img, 1, nil })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := rec.StartTrace()
				ctx := obs.WithTrace(context.Background(), tr)
				if _, hit, _ := c.GetOrComputeCost(ctx, k, nil); !hit {
					b.Fatal("not a hit")
				}
				tr.Finish(obs.OutcomeHit)
				rec.Record(tr)
			}
		})
		b.Run(codecName+"/l1-miss", func(b *testing.B) {
			// Two keys alternate through a cache that holds one payload,
			// so every fetch misses, slices the container, and evicts the
			// other key — the whole miss path the server runs.
			c := NewBlockCache(1, len(payload))
			keys := [2]string{BlockAddress(codecName, nil, img), BlockAddress(codecName, nil, img[1:])}
			cost := codec.Cost().CompressCycles(len(img))
			ctx := context.Background()
			compute := func() ([]byte, int64, error) {
				if err := faultCacheCompute.Err(); err != nil {
					return nil, 0, err
				}
				return payload[:len(payload):len(payload)], cost, nil
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, hit, _ := c.GetOrComputeCost(ctx, keys[i&1], compute); hit {
					b.Fatal("not a miss")
				}
			}
		})
	}
}

// BenchmarkWordRead prices the v3 sub-block serving path against what
// it replaces: serving a single word (or a 16-word span) through the
// container's group directory — one bounded ReadAt plus one-group
// decode — versus decoding the whole 16 KiB block through the index
// (l2-index-read) or re-running the compressor (full-rebuild). The
// acceptance bar is the word read coming in an order of magnitude
// under the whole-block decode for the group-capable codecs, at zero
// steady-state allocations.
func BenchmarkWordRead(b *testing.B) {
	g := cfg.New()
	const nblocks, words = 8, 4096 // 16 KiB blocks, production-sized
	ids := make([]cfg.BlockID, nblocks)
	for i := range ids {
		ids[i] = g.AddBlock(fmt.Sprintf("b%d", i), words)
	}
	if err := g.SetEntry(ids[0]); err != nil {
		b.Fatal(err)
	}
	for i := 0; i+1 < len(ids); i++ {
		g.MustAddEdge(ids[i], ids[i+1], cfg.EdgeJump, 1)
	}
	prog, err := program.Synthesize("bigblocks", g, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, codecName := range []string{"dict", "bdi", "cpack", "identity"} {
		code, err := prog.CodeBytes()
		if err != nil {
			b.Fatal(err)
		}
		codec, err := compress.New(codecName, code)
		if err != nil {
			b.Fatal(err)
		}
		container, err := pack.Pack(prog, codec)
		if err != nil {
			b.Fatal(err)
		}
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		key, err := st.Put(container)
		if err != nil {
			b.Fatal(err)
		}
		obj, err := st.Open(key)
		if err != nil {
			b.Fatal(err)
		}
		if !obj.HasGroupIndex() {
			b.Fatalf("%s container has no group directory", codecName)
		}
		plain, err := prog.AllBlockBytes()
		if err != nil {
			b.Fatal(err)
		}
		id := len(plain) / 2
		img := plain[id]

		for _, span := range []struct {
			name   string
			nwords int
		}{{"l2-word-read", 1}, {"l2-word-read-span16", 16}} {
			b.Run(codecName+"/"+span.name, func(b *testing.B) {
				comp := compress.GetBuf(4 << 10)
				dst := compress.GetBuf(span.nwords * 4)
				defer func() {
					compress.PutBuf(comp)
					compress.PutBuf(dst)
				}()
				word := words/2 + 3 // mid-block, mid-group
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := obj.ReadWordRange(codec, id, word, span.nwords, comp[:0], dst[:0]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(codecName+"/l2-index-read", func(b *testing.B) {
			scratch := compress.GetBuf(len(img))
			comps := compress.GetBuf(codec.MaxCompressedLen(len(img)))
			defer func() {
				compress.PutBuf(scratch)
				compress.PutBuf(comps)
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := obj.VerifiedBlock(codec, id, comps[:0], scratch[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codecName+"/full-rebuild", func(b *testing.B) {
			scratch := compress.GetBuf(codec.MaxCompressedLen(len(img)))
			defer compress.PutBuf(scratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codec.CompressAppend(scratch[:0], img); err != nil {
					b.Fatal(err)
				}
			}
		})
		obj.Close()
	}
}

// BenchmarkStartup compares what a restarted server pays to get its
// first (workload, codec) container ready: a cold start runs the
// packer and the verification unpack; a warm start against a
// populated store restores from disk without packing.
func BenchmarkStartup(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := New(Config{Workers: 2, StoreDir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := s.entryFor(context.Background(), "fft", "dict"); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		seed, err := New(Config{Workers: 2, StoreDir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := seed.entryFor(context.Background(), "fft", "dict"); err != nil {
			b.Fatal(err)
		}
		seed.Close() // flushes the async persist
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s, err := New(Config{Workers: 2, StoreDir: dir})
			if err != nil {
				b.Fatal(err)
			}
			ent, _, err := s.entryFor(context.Background(), "fft", "dict")
			if err != nil {
				b.Fatal(err)
			}
			if ent == nil {
				b.Fatal("no entry")
			}
			b.StopTimer()
			if s.Metrics().Packs.Load() != 0 {
				b.Fatal("warm start invoked the packer")
			}
			s.Close()
			b.StartTimer()
		}
	})
}
