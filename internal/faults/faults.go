// Package faults is a failpoint layer for deterministic fault
// injection at I/O and compute boundaries.
//
// Packages register named sites at init time
// (faults.Register("store.read-at")) and consult them on the hot
// path with Site.Err (latency + transient-error actions) or
// Site.Mangle (bit-flip actions on a byte buffer). A site is armed
// exactly while it has actions, and none has any by default; an
// unarmed site costs one atomic load and zero allocations, so
// production builds pay nothing for carrying the sites.
//
// Actions are configured with a compact spec string (see Set) and a
// deterministic seed (SetSeed): apcc-serve takes both at boot
// (-faults, -fault-seed), and tests and the chaos scenario call Set
// in process. Each site draws from its own splitmix64 stream seeded
// from the global seed and the site name, so a fixed (seed, spec,
// request sequence) replays the same injection decisions.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTransient is the sentinel wrapped by every injected transient
// error. An injected transient must take the transient path and never
// quarantine anything: the server answers a request that meets one
// with a 503 the client may retry, and a warm restore that meets one
// rebuilds cold and keeps the stored object, which pack.IsCorrupt
// does not call corrupt.
var ErrTransient = errors.New("faults: injected transient error")

// Action kinds. A site can carry any number of actions of any kind;
// each action triggers independently with its own probability.
const (
	KindLatency   = "latency"   // sleep for Action.Latency
	KindTransient = "transient" // return an error wrapping ErrTransient
	KindBitFlip   = "bitflip"   // flip one bit of the supplied buffer
)

// Action is one configured behaviour on a site.
type Action struct {
	Kind    string
	Prob    float64       // trigger probability per call, in [0, 1]
	Latency time.Duration // sleep amount for KindLatency
	Limit   int64         // trigger at most this many times; 0 = unlimited
	fired   int64         // triggers so far (under the site mutex)
}

// Site is a named failpoint. The zero cost of the unarmed path
// depends on the field order here: the armed flag is the first word
// so the fast-path load needs no offset arithmetic.
type Site struct {
	armed atomic.Bool // any actions configured
	name  string

	mu       sync.Mutex
	actions  []Action
	rng      uint64          // splitmix64 state, reseeded by SetSeed
	injected [3]atomic.Int64 // per-kind trigger counts: latency, transient, bitflip
}

var (
	seed atomic.Uint64

	regMu sync.Mutex
	sites = map[string]*Site{}
)

// Register creates (or returns) the site with the given name.
// Intended for package-level var blocks; registering the same name
// twice returns the same *Site.
func Register(name string) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	if s, ok := sites[name]; ok {
		return s
	}
	s := &Site{name: name, rng: siteSeed(seed.Load(), name)}
	sites[name] = s
	return s
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// Err applies the site's latency and transient-error actions.
// It returns nil when the site has no actions or no action triggers;
// otherwise it sleeps for the sum of triggered latencies and returns
// an error wrapping ErrTransient if a transient action triggered.
func (s *Site) Err() error {
	if !s.armed.Load() {
		return nil
	}
	return s.errSlow()
}

func (s *Site) errSlow() error {
	s.mu.Lock()
	var sleep time.Duration
	fail := false
	for i := range s.actions {
		a := &s.actions[i]
		switch a.Kind {
		case KindLatency:
			if s.trigger(a) {
				sleep += a.Latency
				s.injected[0].Add(1)
			}
		case KindTransient:
			if !fail && s.trigger(a) {
				fail = true
				s.injected[1].Add(1)
			}
		}
	}
	s.mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if fail {
		return fmt.Errorf("faults: site %s: %w", s.name, ErrTransient)
	}
	return nil
}

// Mangle applies the site's bit-flip actions to buf, flipping one
// deterministically-chosen bit per triggered action. It reports
// whether any bit was flipped. A nil or empty buf is never touched.
func (s *Site) Mangle(buf []byte) bool {
	if !s.armed.Load() || len(buf) == 0 {
		return false
	}
	return s.mangleSlow(buf)
}

func (s *Site) mangleSlow(buf []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	flipped := false
	for i := range s.actions {
		a := &s.actions[i]
		if a.Kind != KindBitFlip || !s.trigger(a) {
			continue
		}
		bit := s.next() % uint64(len(buf)*8)
		buf[bit/8] ^= 1 << (bit % 8)
		s.injected[2].Add(1)
		flipped = true
	}
	return flipped
}

// trigger draws from the site stream and applies the action's
// probability and remaining-trigger limit. Caller holds s.mu.
func (s *Site) trigger(a *Action) bool {
	if a.Limit > 0 && a.fired >= a.Limit {
		return false
	}
	if a.Prob < 1 && s.float() >= a.Prob {
		return false
	}
	a.fired++
	return true
}

// next advances the site's splitmix64 stream. Caller holds s.mu.
func (s *Site) next() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float draws a uniform float64 in [0, 1). Caller holds s.mu.
func (s *Site) float() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

func siteSeed(global uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return global ^ h.Sum64()
}

// SetSeed sets the global seed and reseeds every site's stream so a
// chaos run can be replayed exactly.
func SetSeed(v uint64) {
	seed.Store(v)
	regMu.Lock()
	defer regMu.Unlock()
	for name, s := range sites {
		s.mu.Lock()
		s.rng = siteSeed(v, name)
		s.mu.Unlock()
	}
}

// Set replaces the full fault configuration from a spec string: it
// arms exactly the sites the spec names (an empty spec disarms every
// site). The grammar is semicolon-separated clauses, one action each:
//
//	site:key=val,key,...
//
// with keys p=<prob> (default 1), lat=<duration>, err, bitflip, and
// n=<count> (trigger at most count times). Example:
//
//	store.read-at:p=0.1,lat=2ms;store.read-at:p=0.01,err;store.read-at:p=0.001,bitflip
//
// Every named site must already be registered; an unknown site is a
// configuration error, not a silent no-op.
func Set(spec string) error {
	actions, err := parseSpec(spec)
	if err != nil {
		return err
	}
	// parseSpec found every named site registered, and sites are never
	// unregistered, so each set of actions lands on its site here.
	regMu.Lock()
	defer regMu.Unlock()
	for name, s := range sites {
		s.mu.Lock()
		s.actions = actions[name]
		s.armed.Store(len(s.actions) > 0)
		s.mu.Unlock()
	}
	return nil
}

func parseSpec(spec string) (map[string][]Action, error) {
	out := map[string][]Action{}
	for clause := range strings.SplitSeq(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, ":")
		if !ok {
			return nil, fmt.Errorf("faults: clause %q: want site:opts", clause)
		}
		name = strings.TrimSpace(name)
		a := Action{Prob: 1}
		for opt := range strings.SplitSeq(rest, ",") {
			opt = strings.TrimSpace(opt)
			key, val, _ := strings.Cut(opt, "=")
			switch key {
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || p < 0 || p > 1 {
					return nil, fmt.Errorf("faults: clause %q: bad probability %q", clause, val)
				}
				a.Prob = p
			case "lat":
				d, err := time.ParseDuration(val)
				if err != nil || d < 0 {
					return nil, fmt.Errorf("faults: clause %q: bad latency %q", clause, val)
				}
				a.Latency = d
				a.Kind = KindLatency
			case "err":
				a.Kind = KindTransient
			case "bitflip":
				a.Kind = KindBitFlip
			case "n":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faults: clause %q: bad limit %q", clause, val)
				}
				a.Limit = n
			default:
				return nil, fmt.Errorf("faults: clause %q: unknown option %q", clause, opt)
			}
		}
		if a.Kind == "" {
			return nil, fmt.Errorf("faults: clause %q: no action (want lat=, err, or bitflip)", clause)
		}
		out[name] = append(out[name], a)
	}
	regMu.Lock()
	defer regMu.Unlock()
	for name := range out {
		if _, ok := sites[name]; !ok {
			return nil, fmt.Errorf("faults: unknown site %q (registered: %s)", name, strings.Join(siteNamesLocked(), ", "))
		}
	}
	return out, nil
}

func siteNamesLocked() []string {
	names := make([]string, 0, len(sites))
	for name := range sites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Reset clears all actions and counters, disarming every site.
func Reset() {
	regMu.Lock()
	defer regMu.Unlock()
	for name, s := range sites {
		s.mu.Lock()
		s.actions = nil
		s.armed.Store(false)
		s.rng = siteSeed(seed.Load(), name)
		for i := range s.injected {
			s.injected[i].Store(0)
		}
		s.mu.Unlock()
	}
}

// SiteState is one site's trigger counts, as reported by Snapshot.
type SiteState struct {
	Name     string
	Injected map[string]int64 // kind -> count
}

// Snapshot returns the trigger counts of every registered site, sorted
// by name. Sites with no recorded injections are included so the
// metrics exposition can emit a stable series set.
func Snapshot() []SiteState {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]SiteState, 0, len(sites))
	for _, name := range siteNamesLocked() {
		s := sites[name]
		st := SiteState{Name: name, Injected: map[string]int64{}}
		for i, kind := range []string{KindLatency, KindTransient, KindBitFlip} {
			if n := s.injected[i].Load(); n != 0 {
				st.Injected[kind] = n
			}
		}
		out = append(out, st)
	}
	return out
}

// InjectedTotal returns the total trigger count for one kind across
// all sites (kind is one of the Kind* constants).
func InjectedTotal(kind string) int64 {
	idx := 0
	switch kind {
	case KindLatency:
		idx = 0
	case KindTransient:
		idx = 1
	case KindBitFlip:
		idx = 2
	default:
		return 0
	}
	regMu.Lock()
	defer regMu.Unlock()
	var total int64
	for _, s := range sites {
		total += s.injected[idx].Load()
	}
	return total
}
