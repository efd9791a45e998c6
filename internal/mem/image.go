package mem

import (
	"fmt"
)

// Region tells which area of the modeled memory an address falls in.
type Region uint8

// Memory regions.
const (
	RegionNone       Region = iota // outside the image
	RegionCompressed               // the immutable compressed code area
	RegionManaged                  // the decompressed-copy area
)

// String names the region.
func (r Region) String() string {
	switch r {
	case RegionNone:
		return "none"
	case RegionCompressed:
		return "compressed"
	case RegionManaged:
		return "managed"
	}
	return fmt.Sprintf("Region(%d)", uint8(r))
}

// Image is the modeled code memory: the compressed code area (laid out
// once, never moved — the Section 5 design that avoids fragmentation)
// followed by the managed area for decompressed copies. Fetching from
// the compressed area is what raises the memory-protection exception in
// the runtime; Image provides the address classification for that.
type Image struct {
	compBase Addr
	compSize int
	managed  *Arena

	// blockAddr/blockSize give each block's span in the compressed area.
	blockAddr []Addr
	blockSize []int
}

// NewImage lays out the compressed forms of nBlocks blocks (sizes in
// compSizes) starting at base, and creates a managed area of managedSize
// bytes immediately after it.
func NewImage(base Addr, compSizes []int, managedSize int) (*Image, error) {
	img := &Image{compBase: base}
	addr := base
	for i, n := range compSizes {
		if n <= 0 {
			return nil, fmt.Errorf("mem: block %d has compressed size %d", i, n)
		}
		img.blockAddr = append(img.blockAddr, addr)
		img.blockSize = append(img.blockSize, n)
		addr += Addr(n)
	}
	img.compSize = int(addr - base)
	img.managed = NewArena(addr, managedSize)
	return img, nil
}

// CompressedSize returns the compressed area size in bytes: the minimum
// memory the application can occupy.
func (img *Image) CompressedSize() int { return img.compSize }

// Managed returns the managed decompressed-copy arena.
func (img *Image) Managed() *Arena { return img.managed }

// NumBlocks returns the number of blocks laid out in the compressed area.
func (img *Image) NumBlocks() int { return len(img.blockAddr) }

// BlockSpan returns the compressed-area span of block i.
func (img *Image) BlockSpan(i int) (Addr, int, error) {
	if i < 0 || i >= len(img.blockAddr) {
		return 0, 0, fmt.Errorf("mem: block %d outside image of %d blocks", i, len(img.blockAddr))
	}
	return img.blockAddr[i], img.blockSize[i], nil
}

// RegionOf classifies an address.
func (img *Image) RegionOf(addr Addr) Region {
	switch {
	case addr >= img.compBase && addr < img.compBase+Addr(img.compSize):
		return RegionCompressed
	case addr >= img.managed.Base() && addr < img.managed.Base()+Addr(img.managed.Size()):
		return RegionManaged
	}
	return RegionNone
}

// BlockAt maps a compressed-area address back to its block index.
func (img *Image) BlockAt(addr Addr) (int, bool) {
	if img.RegionOf(addr) != RegionCompressed {
		return 0, false
	}
	// Binary search over the sorted block base addresses.
	lo, hi := 0, len(img.blockAddr)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if img.blockAddr[mid] <= addr {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if addr < img.blockAddr[lo]+Addr(img.blockSize[lo]) {
		return lo, true
	}
	return 0, false
}

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
