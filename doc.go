// Package apbcc is a reproduction of "Access Pattern-Based Code
// Compression for Memory-Constrained Embedded Systems" (Ozturk,
// Saputra, Kandemir, Kolcu — DATE 2005): a runtime that keeps an
// embedded program's basic blocks compressed in memory and uses the
// control flow graph plus the observed block access pattern to decide
// when to decompress blocks (on-demand or predictively, ahead of
// execution) and when to discard decompressed copies (the k-edge
// algorithm).
//
// The implementation lives under internal/:
//
//	isa        ERI32, a 32-bit RISC ISA (encoder/decoder/disassembler)
//	asm        two-pass ERI32 assembler
//	cfg        control flow graphs and analyses (dominators, loops, k-edge reach)
//	program    programs = instructions + CFG + branch sites
//	compress   block codecs (dict, cpack, bdi, lzss, huffman, identity),
//	           one registry, cost models
//	mem        software-managed code memory (arena allocator, image, occupancy)
//	trace      block access traces, profiles, predictors
//	policy     pluggable replacement & prefetch engine (paper k-edge LRU,
//	           LFU, GreedyDual-Size cost-aware, Markov beam prefetch)
//	core       the paper's runtime: k-edge compression, pre-decompression,
//	           remember sets, budget eviction — the primary contribution
//	sim        deterministic three-thread cycle simulator
//	rt         goroutine-based concurrent runtime (race-clean)
//	workloads  eleven-kernel synthetic embedded benchmark suite
//	bench      experiment harnesses (the experiment index in README.md)
//	report     text tables / CSV
//	pack       deployable compressed-image containers (the APCC format,
//	           v3: indexed for random block and word access)
//	store      content-addressed on-disk container store (crash-safe
//	           writes, fsck + quarantine, whole-container warm restores)
//	service    concurrent pack-serving subsystem: blocks served as
//	           slices of verified resident containers, disk tier with
//	           warm restarts, pack slot gate, HTTP container/block
//	           endpoints, load generator
//
// Commands: cmd/apcc (single run), cmd/apcc-sweep (regenerate all
// experiment tables), cmd/apcc-pack (build/inspect containers),
// cmd/apcc-serve (serve containers and blocks over HTTP; -loadgen
// replays access patterns against it), cmd/benchdiff (benchstat-style
// old-vs-new comparison of tracked benchmark captures, the CI
// regression gate), cmd/cfgdump, cmd/asmtool.
// Runnable examples are under examples/. See README.md (with the
// experiment index) and DESIGN.md.
package apbcc
