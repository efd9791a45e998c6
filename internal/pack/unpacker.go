// Unpacker: the streaming, steady-state form of Unpack. A serving tier
// re-verifies the same container over and over (warm restarts, periodic
// integrity sweeps, the verification unpack after every build); paying
// a full metadata parse, CFG reconstruction and instruction decode per
// pass is pure allocator churn when the container has not changed. The
// Unpacker keeps the parsed skeleton — index, codec, graph, decoded
// program — from its previous call and, when the next container carries
// a byte-identical metadata prefix, only re-runs the decode fast path:
// every payload is decompressed through one reusable scratch buffer and
// verified against the per-block CRCs and the whole-image CRC — the
// same integrity bar the full path applies. Steady state is a handful
// of allocations per container regardless of block count (pinned by
// TestUnpackerAllocs).
package pack

import (
	"bytes"
	"hash/crc32"
	"sync/atomic"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/program"
)

// VerifyStats counts an Unpacker's work for metrics exposition: how
// many unpacks took the cached-skeleton fast path versus a full parse,
// and the total time spent. Exposed as apcc_verify_unpacks_total{mode}
// and apcc_verify_unpack_seconds_total.
type VerifyStats struct {
	Full   int64 // unpacks that ran the full metadata parse
	Reused int64 // unpacks satisfied by the cached-skeleton redecode
	NS     int64 // cumulative nanoseconds across both paths
}

// Unpacker is a reusing Unpack. It is not safe for concurrent use
// (callers that share one — the serving tier's verification path —
// hold their own lock). The Program/Codec it returns may be shared
// with the Unpacker's cache and with other callers that unpacked the
// same container: callers must treat them as strictly read-only.
// Returned values are never mutated or recycled, so they stay valid
// after later calls displace the cache.
type Unpacker struct {
	name    string
	meta    []byte // metadata prefix (through PayloadBase) of the cached container
	idx     *Index
	codec   compress.Codec
	prog    *program.Program
	info    Info
	scratch []byte // reusable decompression buffer

	// Counters are atomic — Stats may be scraped while another
	// goroutine holds the caller's Unpack lock.
	full   atomic.Int64
	reused atomic.Int64
	ns     atomic.Int64
}

// Stats snapshots the Unpacker's verification counters. Safe to call
// concurrently with Unpack.
func (u *Unpacker) Stats() VerifyStats {
	if u == nil {
		return VerifyStats{}
	}
	return VerifyStats{
		Full:   u.full.Load(),
		Reused: u.reused.Load(),
		NS:     u.ns.Load(),
	}
}

// NewUnpacker returns an empty Unpacker; the first Unpack call fills
// its cache.
func NewUnpacker() *Unpacker { return &Unpacker{} }

// Unpack verifies and reconstructs a container like the package-level
// Unpack, reusing the previous call's skeleton when the container's
// metadata prefix is byte-identical (same name, blocks, edges, codec
// model and payload layout). Reuse is only a fast path, never a trust
// shortcut: every payload is still decompressed and verified against
// its per-block CRC and the whole-image CRC — exactly the integrity
// bar the full path's finalize applies. Any mismatch falls back to a
// full parse, whose result (or error) is authoritative.
func (u *Unpacker) Unpack(name string, data []byte) (*program.Program, compress.Codec, *Info, error) {
	start := time.Now()
	defer func() { u.ns.Add(int64(time.Since(start))) }()
	if u.prog != nil && name == u.name && u.matches(data) && u.redecode(data) {
		u.reused.Add(1)
		info := u.info
		return u.prog, u.codec, &info, nil
	}
	u.full.Add(1)
	p, codec, info, idx, err := unpack(name, data)
	if err != nil {
		return nil, nil, nil, err
	}
	if idx != nil {
		u.cache(name, data, idx, p, codec, info)
	}
	return p, codec, info, err
}

// matches reports whether data is plausibly the cached container: same
// metadata prefix bytes and the exact container length the cached
// index describes.
func (u *Unpacker) matches(data []byte) bool {
	return int64(len(data)) == u.idx.PayloadBase+u.idx.PayloadLen &&
		len(data) >= len(u.meta) &&
		bytes.Equal(data[:len(u.meta)], u.meta)
}

// redecode runs the decode-and-verify pass against the cached
// skeleton: per-block decompress + CRC through the reusable scratch,
// then the whole-image CRC. The per-block CRCs were proven equal to
// the cached program's block images when the skeleton was cached
// (identical metadata prefix), so a passing pass means the payloads
// decode to the cached program's exact image — the same guarantee the
// full path derives them from. Any failure reports false and the
// caller re-parses from scratch.
func (u *Unpacker) redecode(data []byte) bool {
	plain := u.scratch[:0]
	var err error
	for i := range u.idx.Blocks {
		e := &u.idx.Blocks[i]
		comp := data[u.idx.PayloadBase+e.Off : u.idx.PayloadBase+e.Off+e.Len]
		if plain, err = u.idx.VerifyBlock(u.codec, i, comp, plain); err != nil {
			return false
		}
	}
	if cap(plain) > cap(u.scratch) {
		u.scratch = plain
	}
	return crc32.ChecksumIEEE(plain) == u.idx.ImageCRC
}

// cache stores the skeleton of a successfully unpacked v2/v3
// container, reusing the index the unpack already parsed. It is
// deliberately cheap — a prefix copy, no re-parse and no image copies —
// because a caller cycling through distinct containers refills the slot
// on every miss. v1 containers have no index and are never cached:
// every call takes the full path.
func (u *Unpacker) cache(name string, data []byte, idx *Index, p *program.Program, codec compress.Codec, info *Info) {
	u.name = name
	u.meta = append(u.meta[:0], data[:idx.PayloadBase]...)
	u.idx = idx
	u.codec = codec
	u.prog = p
	u.info = *info
}
