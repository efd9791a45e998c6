package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestArenaBasicAllocFree(t *testing.T) {
	a := NewArena(0x1000, 100)
	addr, err := a.Alloc(40)
	if err != nil {
		t.Fatal(err)
	}
	if addr != 0x1000 {
		t.Errorf("first alloc at %#x, want 0x1000", uint32(addr))
	}
	if a.InUse() != 40 || a.FreeBytes() != 60 {
		t.Errorf("InUse=%d Free=%d", a.InUse(), a.FreeBytes())
	}
	if err := a.Free(addr); err != nil {
		t.Fatal(err)
	}
	if a.InUse() != 0 || a.LargestFree() != 100 {
		t.Errorf("after free: InUse=%d Largest=%d", a.InUse(), a.LargestFree())
	}
	if err := a.Check(); err != nil {
		t.Error(err)
	}
}

func TestArenaFirstFitAddressOrder(t *testing.T) {
	a := NewArena(0, 100)
	a1, _ := a.Alloc(20)
	a2, _ := a.Alloc(20)
	a3, _ := a.Alloc(20)
	_ = a3
	// Free the first two; a 10-byte alloc should land in the lowest hole.
	if err := a.Free(a1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(a2); err != nil {
		t.Fatal(err)
	}
	got, err := a.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if got != a1 {
		t.Errorf("first-fit alloc at %#x, want %#x", uint32(got), uint32(a1))
	}
}

func TestArenaCoalescing(t *testing.T) {
	a := NewArena(0, 90)
	a1, _ := a.Alloc(30)
	a2, _ := a.Alloc(30)
	a3, _ := a.Alloc(30)
	// Free in an order that exercises both directions of coalescing.
	if err := a.Free(a1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(a3); err != nil {
		t.Fatal(err)
	}
	if a.LargestFree() != 30 {
		t.Errorf("largest = %d, want 30 (two separate holes)", a.LargestFree())
	}
	if err := a.Free(a2); err != nil {
		t.Fatal(err)
	}
	if a.LargestFree() != 90 {
		t.Errorf("largest = %d, want 90 (fully coalesced)", a.LargestFree())
	}
	if err := a.Check(); err != nil {
		t.Error(err)
	}
}

func TestArenaExhaustion(t *testing.T) {
	a := NewArena(0, 50)
	if _, err := a.Alloc(60); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
	_, _, failed := a.Counters()
	if failed != 1 {
		t.Errorf("failed counter = %d", failed)
	}
}

func TestArenaFragmentationBlocksLargeAlloc(t *testing.T) {
	a := NewArena(0, 100)
	var addrs []Addr
	for i := 0; i < 10; i++ {
		ad, err := a.Alloc(10)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ad)
	}
	// Free every other allocation: 50 bytes free but fragmented.
	for i := 0; i < 10; i += 2 {
		if err := a.Free(addrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if a.FreeBytes() != 50 {
		t.Fatalf("free = %d", a.FreeBytes())
	}
	if _, err := a.Alloc(20); !errors.Is(err, ErrOutOfMemory) {
		t.Error("fragmented arena satisfied a 20-byte alloc")
	}
	if f := a.ExternalFragmentation(); f <= 0.5 {
		t.Errorf("fragmentation = %v, want > 0.5", f)
	}
}

func TestArenaBadOps(t *testing.T) {
	a := NewArena(0, 10)
	if _, err := a.Alloc(0); !errors.Is(err, ErrBadSize) {
		t.Error("zero alloc accepted")
	}
	if _, err := a.Alloc(-1); !errors.Is(err, ErrBadSize) {
		t.Error("negative alloc accepted")
	}
	if err := a.Free(5); !errors.Is(err, ErrBadFree) {
		t.Error("bad free accepted")
	}
	ad, _ := a.Alloc(4)
	if err := a.Free(ad); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(ad); !errors.Is(err, ErrBadFree) {
		t.Error("double free accepted")
	}
}

func TestArenaPeakAndCounters(t *testing.T) {
	a := NewArena(0, 100)
	a1, _ := a.Alloc(60)
	if err := a.Free(a1); err != nil {
		t.Fatal(err)
	}
	_, _ = a.Alloc(10)
	if a.Peak() != 60 {
		t.Errorf("peak = %d, want 60", a.Peak())
	}
	allocs, frees, _ := a.Counters()
	if allocs != 2 || frees != 1 {
		t.Errorf("counters = %d,%d", allocs, frees)
	}
}

func TestArenaSizeOf(t *testing.T) {
	a := NewArena(0, 100)
	ad, _ := a.Alloc(17)
	if n, ok := a.SizeOf(ad); !ok || n != 17 {
		t.Errorf("SizeOf = %d,%v", n, ok)
	}
	if _, ok := a.SizeOf(99); ok {
		t.Error("SizeOf of unallocated address")
	}
}

// TestArenaPropertyRandomWorkload drives random alloc/free sequences and
// checks the full invariant set after every operation.
func TestArenaPropertyRandomWorkload(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewArena(Addr(r.Intn(1<<20)), 4096)
		var live []Addr
		for op := 0; op < 300; op++ {
			if len(live) == 0 || r.Intn(2) == 0 {
				n := 1 + r.Intn(256)
				addr, err := a.Alloc(n)
				if err == nil {
					live = append(live, addr)
				}
			} else {
				i := r.Intn(len(live))
				if err := a.Free(live[i]); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if err := a.Check(); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		// Free everything: the arena must return to one span.
		for _, addr := range live {
			if err := a.Free(addr); err != nil {
				return false
			}
		}
		return a.InUse() == 0 && a.LargestFree() == 4096 && a.Check() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestImageLayout(t *testing.T) {
	img, err := NewImage(0x1000, []int{10, 20, 30}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if img.CompressedSize() != 60 {
		t.Errorf("CompressedSize = %d", img.CompressedSize())
	}
	if img.Managed().base != 0x103c {
		t.Errorf("managed base = %#x", uint32(img.Managed().base))
	}
}

func TestImageRejectsBadBlock(t *testing.T) {
	if _, err := NewImage(0, []int{10, 0}, 100); err == nil {
		t.Error("zero-size block accepted")
	}
}

func TestImageResident(t *testing.T) {
	img, err := NewImage(0, []int{50}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if img.Resident() != 50 {
		t.Errorf("initial resident = %d", img.Resident())
	}
	if _, err := img.Managed().Alloc(80); err != nil {
		t.Fatal(err)
	}
	if img.Resident() != 130 {
		t.Errorf("resident = %d, want 130", img.Resident())
	}
}

func TestOccupancy(t *testing.T) {
	var o Occupancy
	o.Tick(10, 100)
	o.Tick(30, 200)
	o.Tick(-5, 999) // negative durations are clamped; peak still updates
	if o.Peak() != 999 {
		t.Errorf("peak = %d", o.Peak())
	}
	if o.Cycles() != 40 {
		t.Errorf("cycles = %d", o.Cycles())
	}
	want := (10.0*100 + 30.0*200) / 40.0
	if got := o.Average(); got != want {
		t.Errorf("average = %v, want %v", got, want)
	}
}

func TestOccupancyEmpty(t *testing.T) {
	var o Occupancy
	if o.Average() != 0 {
		t.Error("empty occupancy average")
	}
}
