// Package store is the content-addressed on-disk container tier: the
// cheap secondary storage of the paper's memory hierarchy, holding
// checksummed compressed-code images that survive process restarts.
// Containers are keyed by the SHA-256 of their bytes, written
// crash-safely (tmp file + rename within one filesystem), and served
// block-at-a-time through the pack v2 index with plain ReadAt calls —
// a warm store lets a restarted server hand out blocks without ever
// re-running the packer.
//
// On-disk layout under the store root:
//
//	objects/<hh>/<hex64>   container bytes, named by their SHA-256
//	refs/<hexname>         one line: the object key a name points at
//	tmp/                   in-progress writes; cleared on Open
//	quarantine/            corrupt objects moved aside, never deleted
//
// Open runs an fsck pass: leftover tmp debris is removed, every object
// is re-hashed (truncation and bit flips both surface as a key
// mismatch) with corrupt entries quarantined, and refs pointing at
// missing objects are dropped.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"apbcc/internal/compress"
	"apbcc/internal/faults"
	"apbcc/internal/obs"
	"apbcc/internal/pack"
)

// Failpoints on the store's disk boundaries. store.read-at carries
// the bit-flip actions for the whole read path: a flipped payload
// byte surfaces downstream as a CRC/hash mismatch, which is exactly
// the corruption the quarantine machinery must catch.
var (
	faultReadAt = faults.Register("store.read-at")
	faultWrite  = faults.Register("store.write")
	faultFsync  = faults.Register("store.fsync")
)

// Errors.
var (
	ErrNotFound = errors.New("store: object not found")
	ErrCorrupt  = errors.New("store: object corrupt")
)

// Stats is a point-in-time aggregate of store activity since Open.
type Stats struct {
	Objects       int   // resident objects
	Refs          int   // named references
	Puts          int64 // Put calls that wrote a new object
	PutBytes      int64 // bytes written by those Puts
	Gets          int64 // whole-object reads
	BlockReads    int64 // single-block payload reads through the index
	BlockBytes    int64 // compressed bytes served by those reads
	WordReads     int64 // sub-block word-span reads through the v3 group directory
	WordReadBytes int64 // compressed bytes read to serve those spans
	Quarantined   int64 // objects moved aside (fsck + read-time verify)
}

// Store is a content-addressed container store rooted at one
// directory. All methods are safe for concurrent use.
type Store struct {
	dir string

	mu   sync.Mutex // guards the ref map and directory mutations
	refs map[string]string

	puts, putBytes, gets         atomic.Int64
	blockReads, blockBytes, quar atomic.Int64
	wordReads, wordReadBytes     atomic.Int64
}

// Open opens (creating if needed) the store rooted at dir and runs the
// fsck pass described in the package comment.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, refs: make(map[string]string)}
	for _, sub := range []string{"objects", "refs", "tmp", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	if err := s.fsck(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// fsck clears tmp debris, verifies every object hash (quarantining
// mismatches), and loads refs, dropping any that dangle.
func (s *Store) fsck() error {
	tmps, err := os.ReadDir(filepath.Join(s.dir, "tmp"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range tmps {
		// A crash mid-write leaves a partial file here; it was never
		// visible under objects/, so deleting it is always safe.
		os.Remove(filepath.Join(s.dir, "tmp", e.Name()))
	}

	fans, err := os.ReadDir(filepath.Join(s.dir, "objects"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		fanDir := filepath.Join(s.dir, "objects", fan.Name())
		objs, err := os.ReadDir(fanDir)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		for _, obj := range objs {
			path := filepath.Join(fanDir, obj.Name())
			data, err := os.ReadFile(path)
			if err != nil || hashKey(data) != obj.Name() {
				s.quarantinePath(path, obj.Name())
			}
		}
	}

	refs, err := os.ReadDir(filepath.Join(s.dir, "refs"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, ref := range refs {
		path := filepath.Join(s.dir, "refs", ref.Name())
		name, nameErr := hex.DecodeString(ref.Name())
		raw, readErr := os.ReadFile(path)
		key := strings.TrimSpace(string(raw))
		if nameErr != nil || readErr != nil || !s.objectExists(key) {
			os.Remove(path) // dangling or malformed ref
			continue
		}
		s.refs[string(name)] = key
	}
	return nil
}

// Key returns the object key Put would assign to data.
func Key(data []byte) string { return hashKey(data) }

// RefName composes the durable ref name for a (workload, codec)
// binding. apcc-pack (pre-warming a store) and the serving layer
// (resolving warm restarts) must agree on this byte for byte, so the
// composition lives here and nowhere else.
func RefName(workload, codec string) string { return workload + "\x00" + codec }

func hashKey(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key)
}

func (s *Store) objectExists(key string) bool {
	if len(key) != 2*sha256.Size {
		return false
	}
	if _, err := os.Stat(s.objectPath(key)); err != nil {
		return false
	}
	return true
}

// Put stores data, returning its content key. The write is crash-safe:
// bytes land in tmp/ first and become visible only through the final
// rename, so a kill at any point leaves either the complete object or
// nothing. Re-putting existing content is a cheap no-op.
//
// Put takes no store-wide lock: tmp names are unique per call, renames
// are atomic, and concurrent Puts of the same content rename identical
// bytes over each other — so persists of distinct containers proceed
// in parallel and never stall Ref/Stats readers behind disk I/O.
func (s *Store) Put(data []byte) (string, error) {
	key := hashKey(data)
	if s.objectExists(key) {
		return key, nil
	}
	if err := os.MkdirAll(filepath.Dir(s.objectPath(key)), 0o755); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	if err := s.writeRename(data, s.objectPath(key)); err != nil {
		return "", err
	}
	s.puts.Add(1)
	s.putBytes.Add(int64(len(data)))
	return key, nil
}

// writeRename writes data to a fresh (unique) tmp file, syncs it, and
// atomically renames it into place; it needs no locking.
func (s *Store) writeRename(data []byte, dst string) error {
	f, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), "put-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	err = faultWrite.Err()
	if err == nil {
		_, err = f.Write(data)
	}
	if err == nil {
		if err = faultFsync.Err(); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if cerr := f.Close(); cerr != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", cerr)
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Get reads a whole object, verifying its hash; a mismatch quarantines
// the entry and reports ErrCorrupt.
func (s *Store) Get(key string) ([]byte, error) {
	if !s.objectExists(key) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, short(key))
	}
	if err := faultReadAt.Err(); err != nil {
		return nil, fmt.Errorf("store: get %s: %w", short(key), err)
	}
	data, err := os.ReadFile(s.objectPath(key))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	faultReadAt.Mangle(data)
	if hashKey(data) != key {
		s.Quarantine(key)
		return nil, fmt.Errorf("%w: %s fails content hash", ErrCorrupt, short(key))
	}
	s.gets.Add(1)
	return data, nil
}

// Has reports whether key is resident.
func (s *Store) Has(key string) bool { return s.objectExists(key) }

// PutRef names an object: a durable (workload, codec) → container
// binding a restarted server resolves before reaching for the packer.
// The ref write is tmp+rename like object writes.
func (s *Store) PutRef(name, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.objectExists(key) {
		return fmt.Errorf("%w: ref %q -> %s", ErrNotFound, name, short(key))
	}
	path := filepath.Join(s.dir, "refs", hex.EncodeToString([]byte(name)))
	if err := s.writeRename([]byte(key+"\n"), path); err != nil {
		return err
	}
	s.refs[name] = key
	return nil
}

// Ref resolves a name to an object key.
func (s *Store) Ref(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key, ok := s.refs[name]
	return key, ok
}

// DropRef removes a name (used when its object turns out corrupt).
func (s *Store) DropRef(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.refs, name)
	os.Remove(filepath.Join(s.dir, "refs", hex.EncodeToString([]byte(name))))
}

// Quarantine moves an object out of objects/ into quarantine/ where it
// can no longer be served but remains for post-mortems. Refs pointing
// at it are dropped.
func (s *Store) Quarantine(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quarantinePath(s.objectPath(key), key)
	for name, k := range s.refs {
		if k == key {
			delete(s.refs, name)
			os.Remove(filepath.Join(s.dir, "refs", hex.EncodeToString([]byte(name))))
		}
	}
}

// quarantinePath moves one file into quarantine/. Callers hold mu or
// run before the store is shared (fsck).
func (s *Store) quarantinePath(path, name string) {
	if err := os.Rename(path, filepath.Join(s.dir, "quarantine", name)); err != nil {
		// Rename across the same filesystem should not fail; removing
		// is the fallback that still stops the object being served.
		os.Remove(path)
	}
	s.quar.Add(1)
}

// Object is an open container: a file handle plus its parsed v2 index,
// ready to serve individual compressed blocks by offset.
type Object struct {
	store *Store
	key   string
	f     *os.File
	size  int64
	idx   *pack.Index
}

// Open opens an object for block-level access, parsing (and thereby
// structurally validating) its index. v1 containers — or anything else
// that does not parse — are rejected; use Get for whole-object reads.
func (s *Store) Open(key string) (*Object, error) {
	if !s.objectExists(key) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, short(key))
	}
	f, err := os.Open(s.objectPath(key))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	idx, err := pack.ReadIndexAt(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, short(key), err)
	}
	return &Object{store: s, key: key, f: f, size: st.Size(), idx: idx}, nil
}

// Key returns the object's content key.
func (o *Object) Key() string { return o.key }

// Index returns the parsed container index.
func (o *Object) Index() *pack.Index { return o.idx }

// Size returns the container size in bytes.
func (o *Object) Size() int64 { return o.size }

// Close releases the file handle.
func (o *Object) Close() error { return o.f.Close() }

// ReadMeta reads the object's metadata prefix: every byte before the
// payload section, from which its index was parsed. Two containers of
// the same size with equal prefixes have identical indexes.
func (o *Object) ReadMeta() ([]byte, error) {
	meta := make([]byte, o.idx.PayloadBase)
	if _, err := o.f.ReadAt(meta, 0); err != nil {
		return nil, fmt.Errorf("store: %s metadata: %w", short(o.key), err)
	}
	return meta, nil
}

// ReadBlock reads block i's raw compressed payload with one ReadAt.
// The bytes are unverified; use VerifiedBlock when the caller has no
// checksum path of its own.
func (o *Object) ReadBlock(i int) ([]byte, error) {
	return o.ReadBlockRange(i, i, nil)
}

// ReadBlockRange reads the concatenated compressed payloads of blocks
// lo..hi (inclusive) with one ReadAt, appending to dst (which may be
// nil, or pooled scratch for allocation-free reads) and returning the
// extended slice. Block j's payload within the result is located with
// o.Index().PayloadRangeSlice.
func (o *Object) ReadBlockRange(lo, hi int, dst []byte) ([]byte, error) {
	base := len(dst)
	if err := faultReadAt.Err(); err != nil {
		return nil, fmt.Errorf("store: %s blocks %d..%d: %w", short(o.key), lo, hi, err)
	}
	out, err := o.idx.ReadPayloadRangeAt(o.f, lo, hi, dst)
	if err != nil {
		return nil, err
	}
	faultReadAt.Mangle(out[base:])
	o.store.blockReads.Add(int64(hi - lo + 1))
	o.store.blockBytes.Add(int64(len(out) - base))
	return out, nil
}

// HasGroupIndex reports whether the container carries a v3 group
// directory, i.e. whether ReadWordRange can serve sub-block spans.
func (o *Object) HasGroupIndex() bool { return o.idx.HasGroupIndex() }

// ReadWordRange serves a sub-block word span through the container's
// v3 group directory: one ReadAt of exactly the covering word groups'
// compressed bytes, one group decode each — the rest of the block never
// leaves disk. The span's plain bytes are appended to plainDst, the
// compressed group bytes to compDst (pass pooled buffers to stay
// allocation-free); both grown slices are returned. Containers without
// a directory (v2, entropy codecs) fail with pack.ErrNoGroupIndex —
// callers fall back to a full VerifiedBlock. No per-block CRC covers a
// partial decode, so callers with an independent copy of the container
// should cross-check the returned group bytes before serving the span.
func (o *Object) ReadWordRange(codec compress.Codec, block, word, nwords int, compDst, plainDst []byte) (comp, plain []byte, err error) {
	cbase := len(compDst)
	if err := faultReadAt.Err(); err != nil {
		return compDst, plainDst, fmt.Errorf("store: %s block %d words %d+%d: %w", short(o.key), block, word, nwords, err)
	}
	comp, plain, err = o.idx.ReadWordRangeAt(mangledFile{o.f}, codec, block, word, nwords, compDst, plainDst)
	if err != nil {
		return comp, plain, err
	}
	o.store.wordReads.Add(1)
	o.store.wordReadBytes.Add(int64(len(comp) - cbase))
	return comp, plain, nil
}

// mangledFile applies the store.read-at bit flips to the bytes a ReadAt
// returns, before anything decodes them: where disk rot would land.
type mangledFile struct{ f *os.File }

func (m mangledFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := m.f.ReadAt(p, off)
	faultReadAt.Mangle(p[:n])
	return n, err
}

// ReadWordRangeCtx is ReadWordRange with the read-plus-decode timed as
// a StageWordRead span on the context's trace (outcome "ok" or
// "error"). With no trace attached it costs exactly a ReadWordRange
// call.
func (o *Object) ReadWordRangeCtx(ctx context.Context, codec compress.Codec, block, word, nwords int, compDst, plainDst []byte) (comp, plain []byte, err error) {
	tr := obs.FromContext(ctx)
	if tr == nil {
		return o.ReadWordRange(codec, block, word, nwords, compDst, plainDst)
	}
	sp := tr.Begin(obs.StageWordRead)
	comp, plain, err = o.ReadWordRange(codec, block, word, nwords, compDst, plainDst)
	if err != nil {
		sp.End(obs.OutcomeError)
	} else {
		sp.End(obs.OutcomeOK)
	}
	return comp, plain, err
}

// VerifiedBlock reads block i's compressed payload appending it to
// compDst, proves it decompresses to a plain image matching the
// index's length and CRC appending that image to plainDst, and returns
// both grown slices. Passing pooled buffers for both makes the read
// allocation-free (pinned by TestVerifiedBlockAllocFree). A
// verification failure reports ErrCorrupt; the caller decides whether
// to Quarantine.
func (o *Object) VerifiedBlock(codec compress.Codec, i int, compDst, plainDst []byte) (comp, plain []byte, err error) {
	base := len(compDst)
	comp, err = o.ReadBlockRange(i, i, compDst)
	if err != nil {
		return nil, nil, err
	}
	plain, err = o.idx.VerifyBlock(codec, i, comp[base:], plainDst)
	if err != nil {
		// An injected transient decode fault is a timing failure, not
		// bad bytes: let it keep its class so the transient path (rather
		// than quarantine) handles it.
		if errors.Is(err, faults.ErrTransient) {
			return nil, nil, fmt.Errorf("store: %s block %d: %w", short(o.key), i, err)
		}
		return nil, nil, fmt.Errorf("%w: %s block %d: %v", ErrCorrupt, short(o.key), i, err)
	}
	return comp[base:], plain, nil
}

// Stats returns a snapshot of store counters and a directory census.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	refs := len(s.refs)
	s.mu.Unlock()
	st := Stats{
		Refs:          refs,
		Puts:          s.puts.Load(),
		PutBytes:      s.putBytes.Load(),
		Gets:          s.gets.Load(),
		BlockReads:    s.blockReads.Load(),
		BlockBytes:    s.blockBytes.Load(),
		WordReads:     s.wordReads.Load(),
		WordReadBytes: s.wordReadBytes.Load(),
		Quarantined:   s.quar.Load(),
	}
	fans, err := os.ReadDir(filepath.Join(s.dir, "objects"))
	if err != nil {
		return st
	}
	for _, fan := range fans {
		if !fan.IsDir() {
			continue
		}
		objs, err := os.ReadDir(filepath.Join(s.dir, "objects", fan.Name()))
		if err != nil {
			continue
		}
		st.Objects += len(objs)
	}
	return st
}

func short(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}
