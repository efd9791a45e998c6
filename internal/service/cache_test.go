package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"apbcc/internal/cfg"
	"apbcc/internal/policy"
)

func TestBlockAddressDistinct(t *testing.T) {
	// Field boundaries must not alias: ("ab","c") != ("a","bc").
	a := BlockAddress("ab", []byte("c"), []byte("x"))
	b := BlockAddress("a", []byte("bc"), []byte("x"))
	if a == b {
		t.Fatal("addresses alias across field boundaries")
	}
	if BlockAddress("dict", nil, []byte{1}) == BlockAddress("dict", nil, []byte{2}) {
		t.Fatal("addresses ignore payload")
	}
	if BlockAddress("dict", nil, []byte{1}) != BlockAddress("dict", nil, []byte{1}) {
		t.Fatal("addresses are not deterministic")
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewBlockCache(4, 1<<20)
	calls := 0
	compute := func() ([]byte, error) { calls++; return []byte("payload"), nil }

	v, hit, err := c.GetOrCompute("k", compute)
	if err != nil || hit || string(v) != "payload" {
		t.Fatalf("first get: v=%q hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.GetOrCompute("k", compute)
	if err != nil || !hit || string(v) != "payload" {
		t.Fatalf("second get: v=%q hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestCacheAddressesMatchAndAmortize(t *testing.T) {
	blocks := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	model := []byte("model-bytes")
	got := BlockAddresses("dict", model, blocks)
	for i, b := range blocks {
		if want := BlockAddress("dict", model, b); got[i] != want {
			t.Fatalf("block %d: batch address %s != single %s", i, got[i], want)
		}
	}
}

func TestCachePanickingComputeDoesNotWedgeKey(t *testing.T) {
	c := NewBlockCache(1, 1<<20)
	_, _, err := c.GetOrCompute("k", func() ([]byte, error) { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want compute panic error", err)
	}
	// The key must be usable again, not stuck on a dead flight.
	v, _, err := c.GetOrCompute("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(v) != "ok" {
		t.Fatalf("retry after panic: v=%q err=%v", v, err)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewBlockCache(1, 1<<20)
	boom := errors.New("boom")
	calls := 0
	_, _, err := c.GetOrCompute("k", func() ([]byte, error) { calls++; return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	_, hit, err := c.GetOrCompute("k", func() ([]byte, error) { calls++; return []byte("ok"), nil })
	if err != nil || hit {
		t.Fatalf("retry: hit=%v err=%v", hit, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One shard, capacity for two 4-byte values.
	c := NewBlockCache(1, 8)
	put := func(k string) {
		c.GetOrCompute(k, func() ([]byte, error) { return []byte("1234"), nil })
	}
	put("a")
	put("b")
	c.GetOrCompute("a", nil) // touch a so b is the LRU victim
	put("c")                 // evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted, want resident", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Bytes != 8 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheOversizeValueNotAdmitted(t *testing.T) {
	c := NewBlockCache(1, 4)
	v, _, err := c.GetOrCompute("big", func() ([]byte, error) { return make([]byte, 100), nil })
	if err != nil || len(v) != 100 {
		t.Fatalf("v=%d bytes err=%v", len(v), err)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("oversize value admitted: %+v", s)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewBlockCache(4, 1<<20)
	var computes atomic.Int64
	release := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", func() ([]byte, error) {
				computes.Add(1)
				<-release
				return []byte("v"), nil
			})
			if err != nil || string(v) != "v" {
				t.Errorf("got %q, %v", v, err)
			}
		}()
	}
	// Wait until the one compute is in flight and every other caller has
	// joined it, then release it: a caller arriving after the release
	// would find the value resident and count as a hit instead.
	for computes.Load() == 0 {
		runtime.Gosched()
	}
	sh := c.shard("k")
	for {
		sh.mu.Lock()
		joined := sh.inflight["k"].waiters
		sh.mu.Unlock()
		if joined == waiters-1 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Coalesced != waiters-1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheShardSpread(t *testing.T) {
	c := NewBlockCache(8, 1<<20)
	for i := 0; i < 256; i++ {
		k := BlockAddress("codec", nil, []byte{byte(i)})
		c.GetOrCompute(k, func() ([]byte, error) { return []byte{byte(i)}, nil })
	}
	used := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		if len(sh.items) > 0 {
			used++
		}
		sh.mu.Unlock()
	}
	if used < c.Shards()/2 {
		t.Fatalf("only %d/%d shards used for 256 keys", used, c.Shards())
	}
}

func TestCacheConcurrentMixed(t *testing.T) {
	c := NewBlockCache(4, 1<<10) // small: forces evictions under load
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", i%50)
				v, _, err := c.GetOrCompute(k, func() ([]byte, error) {
					return []byte(k), nil
				})
				if err != nil || string(v) != k {
					t.Errorf("got %q, %v", v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheCoalescedErrorIsNotAHit is the regression test for waiters
// piggybacking on a failing compute: they receive the error, must
// report hit=false (the X-Apcc-Cache header is derived from it), and
// must not count as coalesced-as-hit in the stats — errored requests
// previously inflated HitRate.
func TestCacheCoalescedErrorIsNotAHit(t *testing.T) {
	c := NewBlockCache(1, 1<<20)
	boom := errors.New("boom")
	entered := make(chan struct{})
	release := make(chan struct{})
	const waiters = 4

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, hit, err := c.GetOrCompute("k", func() ([]byte, error) {
			close(entered)
			<-release
			return nil, boom
		})
		if hit || !errors.Is(err, boom) {
			t.Errorf("leader: hit=%v err=%v", hit, err)
		}
	}()
	<-entered
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A waiter that arrives while the leader's compute is in
			// flight coalesces onto it; one that slips in after the
			// failure runs this compute itself. Both paths must report
			// hit=false and the error.
			_, hit, err := c.GetOrCompute("k", func() ([]byte, error) { return nil, boom })
			if hit {
				t.Error("request reported hit=true for a failed compute")
			}
			if !errors.Is(err, boom) {
				t.Errorf("waiter err = %v, want boom", err)
			}
		}()
	}
	close(release)
	wg.Wait()

	s := c.Stats()
	if s.Coalesced != 0 {
		t.Errorf("coalesced = %d, want 0 (compute failed)", s.Coalesced)
	}
	if s.Hits != 0 {
		t.Errorf("hits = %d, want 0", s.Hits)
	}
	if got := s.HitRate(); got != 0 {
		t.Errorf("hit rate = %v, want 0: errored piggybacks must not look like hits", got)
	}
}

// TestCacheCostAwarePolicy checks the policy seam end to end: under
// the cost-aware policy a cheap-to-recompute payload is evicted before
// an equally-sized expensive one, regardless of recency.
func TestCacheCostAwarePolicy(t *testing.T) {
	c, err := NewBlockCachePolicy(1, 8, "cost-aware")
	if err != nil {
		t.Fatal(err)
	}
	if c.Policy() != "cost-aware" {
		t.Fatalf("policy = %q", c.Policy())
	}
	add := func(key string, cost int64) {
		t.Helper()
		if _, _, err := c.GetOrComputeCost(context.Background(), key, func() ([]byte, int64, error) {
			return []byte("1234"), cost, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("cheap", 10)
	add("gold", 10000)
	// Touch cheap last: plain LRU would now evict gold.
	if _, ok := c.Get("cheap"); !ok {
		t.Fatal("cheap missing before overflow")
	}
	add("new", 500) // 12 bytes > 8: eviction required
	if _, ok := c.Get("gold"); !ok {
		t.Error("expensive entry was evicted despite cost-aware policy")
	}
	if _, ok := c.Get("cheap"); ok {
		t.Error("cheap entry survived; expected it to be the victim")
	}
	if got := c.Stats().Evictions; got == 0 {
		t.Error("no evictions recorded")
	}
}

// phantomPolicy is a hostile stub: Victim perpetually nominates a key
// the shard has never held. Pre-fix, the eviction loop spun forever on
// it (removeLocked no-op'd without telling the policy, bytes never
// shrank, the same victim came back).
type phantomPolicy struct {
	removed []string
}

func (p *phantomPolicy) Name() string                              { return "phantom" }
func (p *phantomPolicy) Bind(policy.Env)                           {}
func (p *phantomPolicy) Admit(string, policy.Meta) bool            { return true }
func (p *phantomPolicy) OnInsert(string, policy.Meta, int64)       {}
func (p *phantomPolicy) OnAccess(string, int64)                    {}
func (p *phantomPolicy) OnRemove(k string)                         { p.removed = append(p.removed, k) }
func (p *phantomPolicy) Tick(string, int64) []string               { return nil }
func (p *phantomPolicy) Victim(func(string) bool) (string, bool)   { return "phantom", true }
func (p *phantomPolicy) OldestUse(func(string) bool) (int64, bool) { return 0, false }
func (p *phantomPolicy) PrefetchCandidates(cfg.BlockID, func(cfg.BlockID) bool) []cfg.BlockID {
	return nil
}
func (p *phantomPolicy) ObserveEdge(cfg.BlockID, cfg.BlockID) {}

// TestCacheEvictionPhantomVictimTerminates is the regression test for
// the infinite eviction loop: a policy returning a victim absent from
// the shard must be told to forget it (OnRemove) and the loop must
// stop, not spin.
func TestCacheEvictionPhantomVictimTerminates(t *testing.T) {
	c := NewBlockCache(1, 8)
	stub := &phantomPolicy{}
	c.shards[0].pol = stub

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Overflow the 8-byte shard: the eviction loop runs and must
		// terminate despite the policy never naming a real victim.
		c.GetOrCompute("a", func() ([]byte, error) { return []byte("123456"), nil })
		c.GetOrCompute("b", func() ([]byte, error) { return []byte("123456"), nil })
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("eviction loop hung on a phantom victim")
	}
	found := false
	for _, k := range stub.removed {
		if k == "phantom" {
			found = true
		}
	}
	if !found {
		t.Error("policy was never told to forget the phantom victim")
	}
	// Both real entries must still be resident: nothing legitimate was
	// evicted on the phantom's behalf.
	for _, k := range []string{"a", "b"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%q evicted while evicting a phantom", k)
		}
	}
}

// TestCacheUnknownPolicyRejected pins the constructor's validation.
func TestCacheUnknownPolicyRejected(t *testing.T) {
	if _, err := NewBlockCachePolicy(1, 8, "belady"); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestCacheEvictionIsInsertionLRU is the regression test for the
// policy-backed shard matching the list-LRU it replaced: entries that
// were inserted but never re-accessed must be evicted oldest-insertion
// first, not in key order.
func TestCacheEvictionIsInsertionLRU(t *testing.T) {
	c := NewBlockCache(1, 8) // two 4-byte values fit
	add := func(key string) {
		t.Helper()
		if _, _, err := c.GetOrCompute(key, func() ([]byte, error) {
			return []byte("1234"), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	// "x" sorts after "a": key-ordered eviction would evict "a".
	add("x")
	add("a")
	add("c") // overflow: the oldest insertion ("x") must go
	if _, ok := c.Get("x"); ok {
		t.Error("oldest-inserted entry survived eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("recently inserted %q was evicted", k)
		}
	}
}

// TestCacheCancelledWaiterNotAMiss pins the wait-abort accounting: a
// coalesced waiter whose context ends before the leader's compute
// finishes neither hit nor ran a compute, so it must charge the
// WaitAborts counter — not Misses — or request timeouts and client
// disconnects would skew HitRate.
func TestCacheCancelledWaiterNotAMiss(t *testing.T) {
	c := NewBlockCache(1, 1<<20)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrComputeCost(context.Background(), "k", func() ([]byte, int64, error) {
			close(entered)
			<-release
			return []byte("v"), 1, nil
		})
		leaderDone <- err
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.GetOrComputeCost(ctx, "k", func() ([]byte, int64, error) {
		t.Error("cancelled waiter ran the compute")
		return nil, 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (the leader only)", s.Misses)
	}
	if s.WaitAborts != 1 {
		t.Fatalf("wait aborts = %d, want 1 (the cancelled waiter)", s.WaitAborts)
	}
	if s.Hits != 0 || s.Coalesced != 0 {
		t.Fatalf("hits=%d coalesced=%d, want 0/0", s.Hits, s.Coalesced)
	}
	if got := s.HitRate(); got != 0 {
		t.Fatalf("hit rate = %v, want 0 (one miss, no hits; abort excluded)", got)
	}
}
