package mem

import (
	"fmt"
)

// Image is the modeled code memory: the compressed code area (laid out
// once, never moved — the Section 5 design that avoids fragmentation)
// followed by the managed area for decompressed copies. It accounts the
// bytes each area holds; the runtime decides when a fetch traps from
// the state of each unit, not from addresses.
type Image struct {
	compSize int
	managed  *Arena
}

// NewImage lays out the compressed forms of blocks of sizes compSizes
// starting at base, and creates a managed area of managedSize bytes
// immediately after it.
func NewImage(base Addr, compSizes []int, managedSize int) (*Image, error) {
	size := 0
	for i, n := range compSizes {
		if n <= 0 {
			return nil, fmt.Errorf("mem: block %d has compressed size %d", i, n)
		}
		size += n
	}
	return &Image{compSize: size, managed: NewArena(base+Addr(size), managedSize)}, nil
}

// CompressedSize returns the compressed area size in bytes: the minimum
// memory the application can occupy.
func (img *Image) CompressedSize() int { return img.compSize }

// Managed returns the managed decompressed-copy arena.
func (img *Image) Managed() *Arena { return img.managed }

// Resident returns the total resident code bytes right now: the whole
// compressed area (always resident) plus live decompressed copies.
func (img *Image) Resident() int { return img.compSize + img.managed.InUse() }

// Occupancy integrates resident memory over simulated time, producing
// the paper's "memory space consumption at a given time" metric as both
// a peak and a cycle-weighted average.
type Occupancy struct {
	cycles    int64
	weighted  int64 // sum of bytes*cycles
	peakBytes int
}

// Tick records that the system held bytes resident for the given number
// of cycles.
func (o *Occupancy) Tick(cycles int64, bytes int) {
	if cycles < 0 {
		cycles = 0
	}
	o.cycles += cycles
	o.weighted += cycles * int64(bytes)
	if bytes > o.peakBytes {
		o.peakBytes = bytes
	}
}

// Peak returns the maximum resident bytes observed.
func (o *Occupancy) Peak() int { return o.peakBytes }

// Cycles returns the total cycles accumulated.
func (o *Occupancy) Cycles() int64 { return o.cycles }

// Average returns the cycle-weighted average resident bytes.
func (o *Occupancy) Average() float64 {
	if o.cycles == 0 {
		return 0
	}
	return float64(o.weighted) / float64(o.cycles)
}
