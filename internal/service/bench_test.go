package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"apbcc/internal/compress"
	"apbcc/internal/pack"
	"apbcc/internal/store"
	"apbcc/internal/workloads"
)

// BenchmarkServeBlock measures the hot serving path: block fetches of
// a built entry over real HTTP from parallel clients.
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
			warm, err := ts.Client().Get(url) // build the entry
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

// BenchmarkPool measures what the pool's slot gate adds to a job run
// on the calling goroutine.
func BenchmarkPool(b *testing.B) {
	p := NewPool(4)
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

// BenchmarkBlockSource prices what the server does to satisfy a block
// fetch. resident is an untraced block GET through Handler(): the route
// (entry lookup, id parse), the block's payload slice of the entry's
// resident container and the headers, written to a writer that drops
// the body.
func BenchmarkBlockSource(b *testing.B) {
	// Suite blocks are tens of words; synthesize production-sized blocks
	// (16 KiB each), as BenchmarkWordRead does.
	const nblocks, words = 8, 4096
	blockWords := make([]int, nblocks)
	for i := range blockWords {
		blockWords[i] = words
	}
	prog := bigBlockProgram(b, blockWords...)
	srv, err := New(Config{TraceRing: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	for _, codecName := range []string{"dict", "lzss", "cpack", "bdi"} {
		addEntry(b, srv, prog, codecName)
		req := httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/v1/block/%s/%d?codec=%s", prog.Name, nblocks/2, codecName), nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, req)
		if got := w.h.Get(HeaderCodec); got != codecName {
			b.Fatalf("%s: %s = %q", codecName, HeaderCodec, got)
		}
		b.Run(codecName+"/resident", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				clear(w.h)
				h.ServeHTTP(w, req)
			}
		})
	}
}

// BenchmarkWordRead prices the v3 sub-block serving path against what
// it replaces: serving a single word (or a 16-word span) through the
// container's group directory — resident, the server's path, decodes
// the covering groups straight out of the entry's container; the
// l2-word-read cases first read them from a store object with one
// bounded ReadAt — versus decoding the whole 16 KiB block through the
// index (l2-index-read) or re-running the compressor (full-rebuild).
// The acceptance bar is the word read coming in an order of magnitude
// under the whole-block decode for the group-capable codecs, at zero
// steady-state allocations.
func BenchmarkWordRead(b *testing.B) {
	const nblocks, words = 8, 4096 // 16 KiB blocks, production-sized
	blockWords := make([]int, nblocks)
	for i := range blockWords {
		blockWords[i] = words
	}
	prog := bigBlockProgram(b, blockWords...)
	srv, err := New(Config{TraceRing: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
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

		ent, _, _ := addEntry(b, srv, prog, codecName)
		b.Run(codecName+"/resident", func(b *testing.B) {
			dst := make([]byte, 0, len(img))
			word := words/2 + 3 // mid-block, mid-group
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := ent.decodeWords(dst[:0], id, word, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, span := range []struct {
			name   string
			nwords int
		}{{"l2-word-read", 1}, {"l2-word-read-span16", 16}} {
			b.Run(codecName+"/"+span.name, func(b *testing.B) {
				comp := make([]byte, 0, 4<<10)
				dst := make([]byte, 0, span.nwords*4)
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
			scratch := make([]byte, 0, len(img))
			comps := make([]byte, 0, codec.MaxCompressedLen(len(img)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := obj.VerifiedBlock(codec, id, comps[:0], scratch[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codecName+"/full-rebuild", func(b *testing.B) {
			scratch := make([]byte, 0, codec.MaxCompressedLen(len(img)))
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
// populated store restores from disk without packing. suite is a
// fresh server without a store building the dict entry of every suite
// program, the server's half of the hot-block benchmark's set-up; cold
// and warm write and read disk, suite does not.
func BenchmarkStartup(b *testing.B) {
	b.Run("suite", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			s, err := New(Config{TraceRing: -1})
			if err != nil {
				b.Fatal(err)
			}
			for _, name := range workloads.Names() {
				if _, _, err := s.entryFor(ctx, name, "dict"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s.Close()
			b.StartTimer()
		}
	})
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
