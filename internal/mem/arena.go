// Package mem models the software-controlled code memory the paper
// assumes (Section 2): an immutable compressed code area holding every
// basic block in compressed form — the minimum image — plus a managed
// area where decompressed block copies live. The managed area is backed
// by an address-ordered first-fit free-list allocator with coalescing,
// chosen because the paper's Section 5 worries specifically about
// fragmentation of the saved space.
package mem

import (
	"errors"
	"fmt"
	"sort"
)

// Addr is a byte address in the modeled memory.
type Addr uint32

// Allocation errors.
var (
	ErrOutOfMemory = errors.New("mem: out of memory")
	ErrBadFree     = errors.New("mem: free of unallocated address")
	ErrBadSize     = errors.New("mem: non-positive allocation size")
)

type span struct {
	addr Addr
	size int
}

// FitPolicy selects how Alloc searches the free list.
type FitPolicy uint8

// Allocation policies.
const (
	// FirstFit takes the lowest-addressed span that fits — fast and
	// the classic choice for software-managed memories.
	FirstFit FitPolicy = iota
	// BestFit takes the smallest span that fits (ties to the lowest
	// address) — trades search time for less external fragmentation.
	BestFit
)

// String names the policy.
func (p FitPolicy) String() string {
	switch p {
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	}
	return fmt.Sprintf("FitPolicy(%d)", uint8(p))
}

// Arena is an address-ordered free-list allocator over [base,
// base+size). The zero value is not usable; call NewArena.
type Arena struct {
	base   Addr
	size   int
	policy FitPolicy

	free      []span       // address-ordered, coalesced
	allocated map[Addr]int // addr -> size

	inUse   int
	peak    int
	nallocs int
	nfrees  int
	nfailed int
}

// NewArena creates a first-fit arena managing size bytes starting at
// base.
func NewArena(base Addr, size int) *Arena {
	if size < 0 {
		size = 0
	}
	a := &Arena{base: base, size: size, allocated: make(map[Addr]int)}
	if size > 0 {
		a.free = []span{{base, size}}
	}
	return a
}

// SetPolicy selects the fit policy for subsequent allocations.
func (a *Arena) SetPolicy(p FitPolicy) { a.policy = p }

// Policy returns the current fit policy.
func (a *Arena) Policy() FitPolicy { return a.policy }

// Size returns the arena's capacity in bytes.
func (a *Arena) Size() int { return a.size }

// InUse returns the currently allocated byte count.
func (a *Arena) InUse() int { return a.inUse }

// Peak returns the maximum InUse observed.
func (a *Arena) Peak() int { return a.peak }

// FreeBytes returns the total unallocated byte count.
func (a *Arena) FreeBytes() int { return a.size - a.inUse }

// LargestFree returns the largest contiguous free span.
func (a *Arena) LargestFree() int {
	max := 0
	for _, s := range a.free {
		if s.size > max {
			max = s.size
		}
	}
	return max
}

// ExternalFragmentation returns 1 - largestFree/totalFree: 0 when the
// free space is one contiguous span, approaching 1 as it shatters. An
// arena with no free space reports 0.
func (a *Arena) ExternalFragmentation() float64 {
	total := a.FreeBytes()
	if total == 0 {
		return 0
	}
	return 1 - float64(a.LargestFree())/float64(total)
}

// Counters returns the cumulative allocation, free and failed-allocation
// counts.
func (a *Arena) Counters() (allocs, frees, failed int) {
	return a.nallocs, a.nfrees, a.nfailed
}

// Alloc reserves n bytes and returns their address, choosing the span
// according to the arena's fit policy.
func (a *Arena) Alloc(n int) (Addr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadSize, n)
	}
	pick := -1
	for i, s := range a.free {
		if s.size < n {
			continue
		}
		if a.policy == FirstFit {
			pick = i
			break
		}
		if pick < 0 || s.size < a.free[pick].size {
			pick = i
		}
	}
	if pick < 0 {
		a.nfailed++
		return 0, fmt.Errorf("%w: want %d bytes, largest free span %d of %d free",
			ErrOutOfMemory, n, a.LargestFree(), a.FreeBytes())
	}
	s := a.free[pick]
	addr := s.addr
	if s.size == n {
		a.free = append(a.free[:pick], a.free[pick+1:]...)
	} else {
		a.free[pick].addr += Addr(n)
		a.free[pick].size -= n
	}
	a.allocated[addr] = n
	a.inUse += n
	if a.inUse > a.peak {
		a.peak = a.inUse
	}
	a.nallocs++
	return addr, nil
}

// Free releases an allocation made by Alloc, coalescing the resulting
// span with its neighbours.
func (a *Arena) Free(addr Addr) error {
	n, ok := a.allocated[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadFree, uint32(addr))
	}
	delete(a.allocated, addr)
	a.inUse -= n
	a.nfrees++

	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].addr > addr })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = span{addr, n}
	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].addr+Addr(a.free[i].size) == a.free[i+1].addr {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].addr+Addr(a.free[i-1].size) == a.free[i].addr {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return nil
}

// SizeOf returns the size of the allocation at addr.
func (a *Arena) SizeOf(addr Addr) (int, bool) {
	n, ok := a.allocated[addr]
	return n, ok
}

// Check verifies the allocator invariants: free spans are address-
// ordered, non-overlapping, non-adjacent (fully coalesced), inside the
// arena, disjoint from allocations, and sizes account for the whole
// arena. It is used by property tests and returns the first violation.
func (a *Arena) Check() error {
	totalFree := 0
	for i, s := range a.free {
		if s.size <= 0 {
			return fmt.Errorf("mem: free span %d has size %d", i, s.size)
		}
		if s.addr < a.base || s.addr+Addr(s.size) > a.base+Addr(a.size) {
			return fmt.Errorf("mem: free span %d [%#x,+%d) outside arena", i, uint32(s.addr), s.size)
		}
		if i > 0 {
			prev := a.free[i-1]
			if prev.addr+Addr(prev.size) > s.addr {
				return fmt.Errorf("mem: free spans %d,%d overlap", i-1, i)
			}
			if prev.addr+Addr(prev.size) == s.addr {
				return fmt.Errorf("mem: free spans %d,%d not coalesced", i-1, i)
			}
		}
		totalFree += s.size
	}
	totalAlloc := 0
	for addr, n := range a.allocated {
		if addr < a.base || addr+Addr(n) > a.base+Addr(a.size) {
			return fmt.Errorf("mem: allocation [%#x,+%d) outside arena", uint32(addr), n)
		}
		for _, s := range a.free {
			if addr < s.addr+Addr(s.size) && s.addr < addr+Addr(n) {
				return fmt.Errorf("mem: allocation [%#x,+%d) overlaps free span", uint32(addr), n)
			}
		}
		totalAlloc += n
	}
	if totalFree+totalAlloc != a.size {
		return fmt.Errorf("mem: accounting: free %d + alloc %d != size %d", totalFree, totalAlloc, a.size)
	}
	if totalAlloc != a.inUse {
		return fmt.Errorf("mem: inUse %d != sum of allocations %d", a.inUse, totalAlloc)
	}
	return nil
}
