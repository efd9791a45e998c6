package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"apbcc/internal/cfg"
	"apbcc/internal/isa"
	"apbcc/internal/obs"
	"apbcc/internal/pack"
	"apbcc/internal/service"
	"apbcc/internal/trace"
)

type opKind uint8

const (
	opBlock opKind = iota // GET a whole compressed block
	opWord                // GET a plain word span
	opPack                // POST assembly, receive a container
)

// op is one request and what its response must be.
type op struct {
	t     *target
	block int
	query string
	want  []byte // block image or word span
	post  *posted
}

// opGen generates one client's requests. The sequence depends only on
// the seed and the client, so a seed replays the same requests however
// far a run gets into them. Read clients follow seeded CFG walks in
// bursts: pick a container, fetch the next burst steps of this client's
// walk over its program, pick again. Word reads start at a zipf-drawn
// word (a few hot words take most reads) and span 1–4 words. The pack
// client POSTs every (program, codec) pair in turn; 256 and 5 are
// coprime, so one cycle covers all of them.
type opGen struct {
	w       *workload
	seed    int64
	rng     *rand.Rand
	zipf    *rand.Zipf
	targets []*target
	walks   [][]cfg.BlockID
	pos     []int
	rounds  []int64
	// wordQuery[codec index][word][words-1] is the query of a word read.
	wordQuery [][][4]string
	cur, left int
	posts     []*posted
	packs     int
}

func newOpGen(w *workload, seed int64, client int, targets []*target, posts []*posted) (*opGen, error) {
	g := &opGen{w: w, seed: seed*1000003 + int64(client)*7919, targets: targets, posts: posts}
	g.rng = rand.New(rand.NewSource(g.seed))
	g.walks = make([][]cfg.BlockID, len(targets))
	g.pos = make([]int, len(targets))
	g.rounds = make([]int64, len(targets))
	maxWords := 0
	for ti, t := range targets {
		if err := g.walk(ti); err != nil {
			return nil, err
		}
		for _, b := range t.blocks {
			maxWords = max(maxWords, len(b)/isa.WordSize)
		}
	}
	if w.words {
		g.zipf = rand.NewZipf(g.rng, 1.2, 1, uint64(maxWords))
		g.wordQuery = make([][][4]string, len(w.codecs))
		for ci, codec := range w.codecs {
			g.wordQuery[ci] = make([][4]string, maxWords)
			for word := range g.wordQuery[ci] {
				for n := 1; n <= 4; n++ {
					g.wordQuery[ci][word][n-1] = fmt.Sprintf("codec=%s&word=%d&words=%d", codec, word, n)
				}
			}
		}
	}
	return g, nil
}

// walk generates the next CFG walk over target ti's program.
func (g *opGen) walk(ti int) error {
	tr, err := trace.Generate(g.targets[ti].prog.Graph, trace.GenConfig{
		Seed: g.seed + int64(ti)*104729 + g.rounds[ti], MaxSteps: walkSteps, Restart: true})
	if err != nil {
		return err
	}
	g.walks[ti], g.pos[ti] = tr.Blocks, 0
	g.rounds[ti]++
	return nil
}

func (g *opGen) next() (op, error) {
	if g.posts != nil {
		p := g.posts[g.packs%len(g.posts)]
		codec := packCodecs[g.packs%len(packCodecs)]
		g.packs++
		return op{post: p, query: "name=" + p.name + "&codec=" + codec}, nil
	}
	if g.left == 0 {
		g.cur, g.left = g.rng.Intn(len(g.targets)), g.w.burst
	}
	g.left--
	ti := g.cur
	if g.pos[ti] == len(g.walks[ti]) {
		if err := g.walk(ti); err != nil {
			return op{}, err
		}
	}
	t := g.targets[ti]
	b := int(g.walks[ti][g.pos[ti]])
	g.pos[ti]++
	o := op{t: t, block: b, query: t.query, want: t.blocks[b]}
	if g.w.words {
		words := len(o.want) / isa.WordSize
		word := int(g.zipf.Uint64()) % words
		n := min(1+g.rng.Intn(4), words-word)
		o.query = g.wordQuery[ti%len(g.w.codecs)][word][n-1]
		o.want = o.want[word*isa.WordSize : (word+n)*isa.WordSize]
	}
	return o, nil
}

// stages are the server stages X-Apcc-Stages reports, in the order the
// per-layer metrics list them.
var stages = [...]string{
	obs.StageRoute, obs.StageL1, obs.StageL2Read, obs.StageDecode,
	obs.StageReadahead, obs.StageRebuild, obs.StageWordRead, obs.StageBuild,
}

// tally is what one client saw during one phase.
type tally struct {
	lat               []uint32 // every request's latency, ns
	attempted, failed int64
	// comp and plain count the compressed bytes received and the plain
	// bytes they encode; word reads receive only plain bytes.
	comp, plain int64
	firstErr    error

	// Traced phase only: per-stage span counts and self time from
	// X-Apcc-Stages, the route stage's samples, and transport time
	// (client latency minus the reported stages).
	traced     int64
	tracedNS   int64
	stageCount [len(stages)]int64
	stageNS    [len(stages)]int64
	route      []uint32
	transport  []uint32
}

func (t *tally) reset() {
	*t = tally{lat: t.lat[:0], route: t.route[:0], transport: t.transport[:0]}
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// client is one closed-loop client, with its own keep-alive connection
// to each server it loads.
type client struct {
	hc    *http.Client
	kind  opKind
	gen   *opGen
	first op // repeated before memory is read; see replayFirst

	get     *http.Request // reused for every GET once its body is closed
	base    string
	body    bytes.Buffer
	scratch []byte
	t       tally

	refGet *http.Request // GET of the reference server
	rt     tally         // reference windows
}

func newClients(n int) []*client {
	cls := make([]*client, n)
	for i := range cls {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		cls[i] = &client{
			hc: &http.Client{Transport: tr},
			// Room for a 20 s phase at the highest rate seen, so appends
			// do not reallocate while timing.
			t: tally{lat: make([]uint32, 0, 1<<20)},
		}
	}
	return cls
}

// startGen gives the client its request generator and kind.
func (c *client) startGen(w *workload, seed int64, id int, targets []*target, posts []*posted) error {
	c.kind = opBlock
	if w.words {
		c.kind = opWord
	}
	if w.packs && id == 0 {
		c.kind = opPack
	} else {
		posts = nil
	}
	g, err := newOpGen(w, seed, id, targets, posts)
	if err != nil {
		return err
	}
	c.gen = g
	c.first, err = g.next()
	return err
}

func newGet(base string) (*http.Request, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, err
	}
	return (&http.Request{Method: http.MethodGet, URL: u, Header: http.Header{}, Host: u.Host}).
		WithContext(context.Background()), nil
}

// attach points the client at a server.
func (c *client) attach(base string) (err error) {
	c.base = base
	c.get, err = newGet(base)
	return err
}

// roundTrip sends req and reads the whole body into c.body.
func (c *client) roundTrip(req *http.Request) (http.Header, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", req.Method, req.URL, resp.Status, bytes.TrimSpace(c.body.Bytes()))
	}
	return resp.Header, nil
}

// run is the closed loop: send the next request, wait for the whole
// response, verify it, repeat until the deadline.
func (c *client) run(deadline time.Time, traced bool) {
	for {
		o, err := c.gen.next()
		if err != nil {
			c.t.fail(err)
			return
		}
		t0 := time.Now()
		hdr, err := c.send(&o)
		t1 := time.Now()
		lat := t1.Sub(t0)
		c.t.attempted++
		c.t.lat = append(c.t.lat, clampNS(lat))
		if err == nil {
			err = c.verify(&o, hdr)
		}
		if err != nil {
			c.t.fail(err)
		} else if traced && isRead(c) {
			c.t.addStages(hdr.Get(service.HeaderStages), lat)
		}
		if !t1.Before(deadline) {
			return
		}
	}
}

// replayFirst sends the client's first request once more, so the
// server's last-request state (the verifier's cached container, for
// one) is the same in every run when its memory is read.
func (c *client) replayFirst() error {
	hdr, err := c.send(&c.first)
	if err == nil {
		err = c.verify(&c.first, hdr)
	}
	return err
}

func (c *client) send(o *op) (http.Header, error) {
	if c.kind == opPack {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodPost,
			c.base+"/v1/pack?"+o.query, bytes.NewReader(o.post.src))
		if err != nil {
			return nil, err
		}
		return c.roundTrip(req)
	}
	c.get.URL.Path, c.get.URL.RawQuery = o.t.paths[o.block], o.query
	return c.roundTrip(c.get)
}

// verify checks a response against the oracle: a block must decompress
// to the unpacked image, a word span must equal the image's bytes, both
// must carry the CRC of those bytes, and a posted program's container
// must unpack to the code image its source assembles to.
func (c *client) verify(o *op, hdr http.Header) error {
	body := c.body.Bytes()
	switch c.kind {
	case opBlock:
		plain, err := o.t.dec.DecompressAppend(c.scratch[:0], body)
		if err != nil {
			return fmt.Errorf("%s?%s: decompress: %w", o.t.paths[o.block], o.query, err)
		}
		c.scratch = plain
		if !bytes.Equal(plain, o.want) {
			return fmt.Errorf("%s?%s: block differs from the unpacked image", o.t.paths[o.block], o.query)
		}
		c.t.comp += int64(len(body))
	case opWord:
		if !bytes.Equal(body, o.want) {
			return fmt.Errorf("%s?%s: word span differs from the unpacked image", o.t.paths[o.block], o.query)
		}
	case opPack:
		p, _, _, err := pack.Unpack(o.post.name, body)
		if err != nil {
			return fmt.Errorf("pack %s: %w", o.query, err)
		}
		code, err := p.CodeBytes()
		if err != nil {
			return err
		}
		if !bytes.Equal(code, o.post.code) {
			return fmt.Errorf("pack %s: container unpacks to a different image than the source assembles to", o.query)
		}
		c.t.comp += int64(len(body))
		c.t.plain += int64(len(code))
		return nil
	}
	want := o.t.crcs[o.block]
	if c.kind == opWord {
		want = crc32.ChecksumIEEE(o.want)
	}
	h := hdr.Get(service.HeaderCRC)
	if got, err := strconv.ParseUint(h, 16, 32); err != nil || uint32(got) != want {
		return fmt.Errorf("%s?%s: %s %q, want %08x", o.t.paths[o.block], o.query, service.HeaderCRC, h, want)
	}
	c.t.plain += int64(len(o.want))
	return nil
}

// addStages attributes one traced response's X-Apcc-Stages
// ("stage:ns;...") and charges the rest of the client latency to
// transport.
func (t *tally) addStages(h string, lat time.Duration) {
	var total int64
	for h != "" {
		var seg string
		seg, h, _ = strings.Cut(h, ";")
		name, nsText, _ := strings.Cut(seg, ":")
		ns, err := strconv.ParseInt(nsText, 10, 64)
		if err != nil {
			continue
		}
		total += ns
		for i, s := range stages {
			if s == name {
				t.stageCount[i]++
				t.stageNS[i] += ns
				if i == 0 {
					t.route = append(t.route, clampNS(time.Duration(ns)))
				}
				break
			}
		}
	}
	t.traced++
	t.tracedNS += int64(lat)
	t.transport = append(t.transport, clampNS(lat-time.Duration(total)))
}

// runRef is the closed loop against the reference server.
func (c *client) runRef(deadline time.Time) {
	for {
		t0 := time.Now()
		_, err := c.roundTrip(c.refGet)
		t1 := time.Now()
		c.rt.attempted++
		c.rt.lat = append(c.rt.lat, clampNS(t1.Sub(t0)))
		if err == nil && !bytes.Equal(c.body.Bytes(), refBody) {
			err = fmt.Errorf("reference server: wrong body")
		}
		if err != nil {
			c.rt.fail(err)
		}
		if !t1.Before(deadline) {
			return
		}
	}
}

// Phases alternate loadWindow of workload load with refWindow of the
// reference server, so host speed is sampled throughout the phase.
const (
	loadWindow = time.Second
	refWindow  = 200 * time.Millisecond
)

// runPhase drives every client for d of workload load, interleaved
// with reference windows when ref is set. It returns the time spent on
// each, and for every load window each client's sample count at its
// end.
func runPhase(cls []*client, d time.Duration, traced bool, ref *refServer) (load, refTime time.Duration, marks [][]int) {
	for _, c := range cls {
		c.t.reset()
		c.rt.reset()
	}
	for load < d {
		load += runWindow(cls, min(loadWindow, d-load), func(c *client, deadline time.Time) { c.run(deadline, traced) })
		mark := make([]int, len(cls))
		for i, c := range cls {
			mark[i] = len(c.t.lat)
		}
		marks = append(marks, mark)
		if ref != nil {
			refTime += runWindow(cls, refWindow, (*client).runRef)
		}
	}
	return load, refTime, marks
}

// runWindow runs fn on every client concurrently until d has passed and
// returns the window's wall time.
func runWindow(cls []*client, d time.Duration, fn func(*client, time.Time)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c, deadline)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

func clampNS(d time.Duration) uint32 {
	return uint32(min(max(d, 0), math.MaxUint32))
}
