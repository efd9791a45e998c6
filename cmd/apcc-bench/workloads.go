package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"apbcc/internal/compress"
	"apbcc/internal/pack"
	"apbcc/internal/program"
	"apbcc/internal/service"
	"apbcc/internal/workloads"
)

// workload is one traffic mix. Every read workload fetches from each
// suite program under each of its codecs; BENCHMARK.json and README.md
// say why each mix exists.
type workload struct {
	name   string
	codecs []string
	// store attaches a disk store, so L1 misses and word reads go
	// through the L2 tier.
	store bool
	// cacheBytes and cacheShards size the L1 block cache (0 = server
	// default, 32 MiB over 16 shards).
	cacheBytes, cacheShards int
	// burst is how many consecutive steps of one container's CFG walk a
	// client fetches before it picks another container.
	burst int
	words bool // reads are ?word=W&words=N spans, not whole blocks
	packs bool // client 0 POSTs generated programs instead of reading
}

// packCodecs are the codecs l2-miss reads and pack-write packs with.
var packCodecs = []string{"dict", "bdi", "cpack", "lzss", "huffman"}

var allWorkloads = []*workload{
	{name: "hot-block", codecs: []string{"dict"}, burst: 64},
	{name: "l2-miss", codecs: packCodecs, store: true, cacheBytes: 1024, cacheShards: 4, burst: 8},
	{name: "word-read", codecs: []string{"bdi", "cpack", "dict"}, store: true, burst: 8, words: true},
	{name: "pack-write", codecs: []string{"dict"}, burst: 64, packs: true},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

const (
	numClients = 2
	// walkSteps is the length of one CFG walk; a client that finishes a
	// container's walk generates the next one from its seed.
	walkSteps = 4096
	// numPosted is how many distinct programs pack-write generates:
	// enough that their mean size, and with it the pack cost and the
	// container ratio, barely moves from one seed to the next.
	numPosted = 256
	// persistWait bounds how long a set-up waits for the server's
	// asynchronous store persists.
	persistWait = time.Minute
)

// target is one (suite program, codec) container the read clients
// fetch from, with the client's oracle: the program and codec rebuilt
// by unpacking the container the server sent.
type target struct {
	workload, codec string
	prog            *program.Program
	dec             compress.Codec
	blocks          [][]byte // plain block images
	crcs            []uint32 // CRC-32 of each block image
	paths           []string // /v1/block/<workload>/<id>
	query           string   // codec=<codec>
}

// posted is one generated program pack-write POSTs, with its oracle:
// the code image program.FromAssembly builds from the same source.
type posted struct {
	name string
	src  []byte
	prog *program.Program
	code []byte
}

// fixture is one running server on a loopback listener.
type fixture struct {
	srv    *service.Server
	hs     *http.Server
	served chan error
	base   string
	dir    string       // store directory, "" without a store
	conns  atomic.Int64 // open server-side connections
}

func startServer(w *workload, traced bool) (*fixture, error) {
	cfg := service.Config{CacheBytes: w.cacheBytes, CacheShards: w.cacheShards}
	if !traced {
		cfg.TraceRing = -1
	}
	f := &fixture{served: make(chan error, 1)}
	if w.store {
		dir, err := os.MkdirTemp("", "apcc-bench-store-")
		if err != nil {
			return nil, err
		}
		f.dir, cfg.StoreDir = dir, dir
	}
	srv, err := service.New(cfg)
	if err != nil {
		os.RemoveAll(f.dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(f.dir)
		return nil, err
	}
	f.srv = srv
	f.base = "http://" + ln.Addr().String()
	f.hs = &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ConnState: func(_ net.Conn, s http.ConnState) {
			switch s {
			case http.StateNew:
				f.conns.Add(1)
			case http.StateClosed, http.StateHijacked:
				f.conns.Add(-1)
			}
		},
	}
	go func() { f.served <- f.hs.Serve(ln) }()
	return f, nil
}

// waitNoConns waits until the server has closed every connection, so
// no connection buffers are live when memory is read.
func (f *fixture) waitNoConns() error {
	deadline := time.Now().Add(5 * time.Second)
	for f.conns.Load() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("server still has %d open connections", f.conns.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// close stops the listener and the server, removes the store, and
// returns the resilience events the server counted: requests shed,
// retried or rejected by a breaker, and objects quarantined. A healthy
// run has none.
func (f *fixture) close() int64 {
	f.hs.Close()
	<-f.served
	m := f.srv.Metrics()
	events := m.Shed.Load() + m.RetrySuccess.Load() + m.RetryExhausted.Load() +
		m.RetryAborted.Load() + m.BreakerRejects.Load()
	if st := f.srv.Store(); st != nil {
		events += st.Stats().Quarantined
	}
	f.srv.Close()
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
	return events
}

// setUp starts a fresh server and brings it to the state the load
// phases need: every container the workload reads is built and
// verified by the server, persisted when the workload has a store, and
// unpacked by client c as the oracle. Containers are fetched one at a
// time, so the time depends little on whether the host grants both
// CPUs at that moment. It returns the fixture, the oracle and the time
// all of that took.
func setUp(w *workload, c *client, traced bool) (*fixture, []*target, time.Duration, error) {
	// Start from a collected heap, so garbage from before is not
	// collected while the set-up is timed.
	runtime.GC()
	start := time.Now()
	f, err := startServer(w, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	var targets []*target
	for _, name := range workloads.Names() {
		for _, codec := range w.codecs {
			t := &target{workload: name, codec: codec}
			if err == nil {
				err = c.fetchTarget(f.base, t)
			}
			targets = append(targets, t)
		}
	}
	if err == nil && w.store {
		err = waitPersisted(f, len(targets))
	}
	took := time.Since(start)
	if err != nil {
		f.close()
		return nil, nil, 0, err
	}
	return f, targets, took, nil
}

func (c *client) fetchTarget(base string, t *target) error {
	url := fmt.Sprintf("%s/v1/pack/%s?codec=%s", base, t.workload, t.codec)
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if _, err := c.roundTrip(req); err != nil {
		return err
	}
	p, dec, _, err := pack.Unpack(t.workload, c.body.Bytes())
	if err != nil {
		return fmt.Errorf("unpack %s/%s: %w", t.workload, t.codec, err)
	}
	blocks, err := p.AllBlockBytes()
	if err != nil {
		return err
	}
	t.prog, t.dec, t.blocks = p, dec, blocks
	t.query = "codec=" + t.codec
	t.crcs = make([]uint32, len(blocks))
	t.paths = make([]string, len(blocks))
	for i, b := range blocks {
		t.crcs[i] = crc32.ChecksumIEEE(b)
		t.paths[i] = fmt.Sprintf("/v1/block/%s/%d", t.workload, i)
	}
	return nil
}

// waitPersisted waits until the server has persisted (and attached)
// all n containers it built, so L2 reads find their objects.
func waitPersisted(f *fixture, n int) error {
	deadline := time.Now().Add(persistWait)
	for f.srv.Metrics().StorePersists.Load() < int64(n) {
		if time.Now().After(deadline) {
			return fmt.Errorf("store persisted %d of %d containers within %v",
				f.srv.Metrics().StorePersists.Load(), n, persistWait)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// sameOracle reports whether a later set-up served exactly the block
// images the first one did.
func sameOracle(a, b []*target) error {
	for i := range a {
		if len(a[i].blocks) != len(b[i].blocks) {
			return fmt.Errorf("%s/%s: %d blocks, first set-up had %d",
				b[i].workload, b[i].codec, len(b[i].blocks), len(a[i].blocks))
		}
		for j := range a[i].blocks {
			if !bytes.Equal(a[i].blocks[j], b[i].blocks[j]) {
				return fmt.Errorf("%s/%s block %d differs from the first set-up", b[i].workload, b[i].codec, j)
			}
		}
	}
	return nil
}

// genPosted generates pack-write's programs and assembles each one the
// way the server will, as the oracle for its POSTs. The programs are written directly rather than
// disassembled from the suite because disassembly output does not
// reassemble.
func genPosted(seed int64) ([]*posted, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x7061636b))
	out := make([]*posted, numPosted)
	for i := range out {
		name := fmt.Sprintf("gen%d", i)
		src := genAssembly(rng)
		p, err := program.FromAssembly(name, src)
		if err != nil {
			return nil, fmt.Errorf("generated program %s: %w", name, err)
		}
		code, err := p.CodeBytes()
		if err != nil {
			return nil, err
		}
		out[i] = &posted{name: name, src: []byte(src), prog: p, code: code}
	}
	return out, nil
}

var (
	aluR     = []string{"add", "sub", "and", "or", "xor", "sll", "mul"}
	aluI     = []string{"addi", "andi", "ori", "xori", "slti"}
	memOps   = []string{"lw", "sw"}
	branches = []string{"beq", "bne", "blt", "bge"}
)

// genAssembly writes one ERI32 program of 24–47 labelled blocks. Each
// block ends in a control transfer, so every label starts a basic
// block; branch and jump targets are labels of the same program.
func genAssembly(rng *rand.Rand) string {
	n := 24 + rng.Intn(24)
	reg := func() int { return 1 + rng.Intn(15) }
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "b%d:\n", i)
		for k := 1 + rng.Intn(8); k > 0; k-- {
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&sb, "\t%s r%d, r%d, r%d\n", aluR[rng.Intn(len(aluR))], reg(), reg(), reg())
			case 1:
				fmt.Fprintf(&sb, "\t%s r%d, r%d, %d\n", aluI[rng.Intn(len(aluI))], reg(), reg(), rng.Intn(128)-64)
			default:
				fmt.Fprintf(&sb, "\t%s r%d, %d(r%d)\n", memOps[rng.Intn(len(memOps))], reg(), 4*rng.Intn(64), reg())
			}
		}
		switch {
		case i == n-1:
			sb.WriteString("\thalt\n")
		case rng.Intn(4) == 0:
			fmt.Fprintf(&sb, "\tj b%d\n", rng.Intn(n))
		default:
			fmt.Fprintf(&sb, "\t%s r%d, r%d, b%d\n", branches[rng.Intn(len(branches))], reg(), reg(), rng.Intn(n))
		}
	}
	return sb.String()
}
