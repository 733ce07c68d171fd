package isv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/memsim"
	"repro/internal/sec"
)

const ktext = 0xffff_ffff_8100_0000

func TestAddRemoveInst(t *testing.T) {
	v := NewView()
	va := uint64(ktext + 0x40)
	if v.Contains(va) {
		t.Error("empty view contains instruction")
	}
	v.AddInst(va)
	if !v.Contains(va) {
		t.Error("instruction missing after AddInst")
	}
	if v.Contains(va + 4) {
		t.Error("neighbour slot contained")
	}
	v.RemoveInst(va)
	if v.Contains(va) || v.NumInsts() != 0 {
		t.Error("instruction survives RemoveInst")
	}
}

func TestAddInstIdempotent(t *testing.T) {
	v := NewView()
	v.AddInst(ktext)
	v.AddInst(ktext)
	if v.NumInsts() != 1 {
		t.Errorf("count = %d, want 1", v.NumInsts())
	}
}

func TestAddFuncCoversBody(t *testing.T) {
	v := NewView()
	entry := uint64(ktext + 0x1000)
	v.AddFunc(entry, 10)
	for i := uint64(0); i < 10; i++ {
		if !v.Contains(entry + i*4) {
			t.Errorf("inst %d missing", i)
		}
	}
	if v.Contains(entry + 10*4) {
		t.Error("slot past function end contained")
	}
	if v.NumFuncs() != 1 || v.NumInsts() != 10 {
		t.Errorf("funcs=%d insts=%d", v.NumFuncs(), v.NumInsts())
	}
}

func TestFuncSpanningPages(t *testing.T) {
	v := NewView()
	entry := uint64(ktext + 4096 - 8) // last 2 slots of a page + more
	v.AddFunc(entry, 6)
	for i := uint64(0); i < 6; i++ {
		if !v.Contains(entry + i*4) {
			t.Errorf("inst %d missing across page boundary", i)
		}
	}
}

func TestExclude(t *testing.T) {
	v := NewView()
	gadget := uint64(ktext + 0x2000)
	safe := uint64(ktext + 0x3000)
	v.AddFunc(gadget, 8)
	v.AddFunc(safe, 8)
	if !v.Exclude(gadget) {
		t.Fatal("Exclude returned false for a trusted function")
	}
	if v.Contains(gadget) || v.ContainsFunc(gadget) {
		t.Error("gadget instructions survive Exclude")
	}
	if !v.Contains(safe) {
		t.Error("Exclude removed an unrelated function")
	}
	if v.Exclude(gadget) {
		t.Error("second Exclude reported success")
	}
}

func TestClone(t *testing.T) {
	v := NewView()
	v.AddFunc(ktext, 4)
	c := v.Clone()
	c.Exclude(ktext)
	if !v.Contains(ktext) {
		t.Error("Exclude on clone mutated original")
	}
	if c.Contains(ktext) {
		t.Error("clone still contains excluded function")
	}
}

func TestDirCheckMissThenHit(t *testing.T) {
	d := NewDir()
	ctx := sec.Ctx(3)
	v := NewView()
	pc := uint64(ktext + 0x100)
	v.AddFunc(pc, 4)
	d.Install(ctx, v)
	if r := d.Check(ctx, pc); r != Miss {
		t.Errorf("first check = %v, want Miss", r)
	}
	if r := d.Check(ctx, pc); r != Hit {
		t.Errorf("second check = %v, want Hit", r)
	}
	// Same cache granule, trusted slot: resolved from the same entry.
	if r := d.Check(ctx, pc+3*4); r != Hit {
		t.Errorf("in-func slot = %v, want Hit", r)
	}
	// Slot 4..15 of the same line are outside the 4-inst function.
	if r := d.Check(ctx, pc+8*4); r == Hit {
		t.Errorf("outside slot allowed (r=%v)", r)
	}
}

func TestDirUntrustedContextBlocked(t *testing.T) {
	d := NewDir()
	pc := uint64(ktext+0x500) &^ 63
	// No view installed: everything outside.
	if r := d.Check(7, pc); r != Miss {
		t.Errorf("first = %v", r)
	}
	if r := d.Check(7, pc); r != HitOutside {
		t.Errorf("second = %v, want HitOutside", r)
	}
	if d.Trusted(7, pc) {
		t.Error("Trusted true with no view")
	}
}

func TestExcludeFuncInvalidatesCache(t *testing.T) {
	d := NewDir()
	ctx := sec.Ctx(3)
	v := NewView()
	gadget := uint64(ktext+0x700) &^ 63
	v.AddFunc(gadget, 16)
	d.Install(ctx, v)
	d.Check(ctx, gadget) // miss+refill
	if r := d.Check(ctx, gadget); r != Hit {
		t.Fatalf("warm check = %v", r)
	}
	if !d.ExcludeFunc(ctx, gadget, 16) {
		t.Fatal("ExcludeFunc failed")
	}
	// The stale trusted entry must be gone: otherwise the "patched" gadget
	// would still speculate until natural eviction.
	if r := d.Check(ctx, gadget); r == Hit {
		t.Error("stale ISV cache entry trusts an excluded gadget")
	}
}

func TestInstallReplacesAndInvalidates(t *testing.T) {
	d := NewDir()
	ctx := sec.Ctx(3)
	v1 := NewView()
	pc := uint64(ktext) &^ 63
	v1.AddFunc(pc, 4)
	d.Install(ctx, v1)
	d.Check(ctx, pc)
	d.Check(ctx, pc) // warm Hit
	d.Install(ctx, NewView())
	if r := d.Check(ctx, pc); r == Hit {
		t.Error("stale entry survives Install of a stricter view")
	}
}

func TestDrop(t *testing.T) {
	d := NewDir()
	v := NewView()
	v.AddFunc(ktext, 2)
	d.Install(5, v)
	d.Drop(5)
	if d.View(5) != nil || d.Trusted(5, ktext) {
		t.Error("view survived Drop")
	}
}

// Property: Contains is exactly membership of the added set.
func TestViewMembershipProperty(t *testing.T) {
	f := func(slots []uint16) bool {
		v := NewView()
		want := make(map[uint64]bool)
		for _, s := range slots {
			va := uint64(ktext) + uint64(s)*4
			v.AddInst(va)
			want[va] = true
		}
		for s := 0; s < 1<<16; s += 97 {
			va := uint64(ktext) + uint64(s)*4
			if v.Contains(va) != want[va] {
				return false
			}
		}
		return uint64(len(want)) == v.NumInsts()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHitRateHighOnHotLoop(t *testing.T) {
	d := NewDir()
	ctx := sec.Ctx(2)
	v := NewView()
	v.AddFunc(ktext, 64)
	d.Install(ctx, v)
	for i := 0; i < 10000; i++ {
		d.Check(ctx, ktext+uint64(i%64)*4)
	}
	if hr := d.Cache().Stats().HitRate(); hr < 0.99 {
		t.Errorf("hit rate = %f, want >= 0.99 (paper §9.2)", hr)
	}
}

func TestISVOffsetNamed(t *testing.T) {
	// The fixed VA offset of Figure 6.1a exists as a layout constant.
	if memsim.ISVOffset == 0 {
		t.Error("ISVOffset is zero")
	}
}

func TestStringNonEmpty(t *testing.T) {
	v := NewView()
	if v.String() == "" {
		t.Error("empty String")
	}
}

// lineMaskLoop is the slot-by-slot definition of a window's payload: bit i
// is the membership of the window's i-th instruction slot.
func lineMaskLoop(v *View, va uint64) uint64 {
	var mask uint64
	start := va &^ (1<<lineShift - 1)
	for i := uint64(0); i < instsPerLine; i++ {
		if v.Contains(start + i<<instShift) {
			mask |= 1 << i
		}
	}
	return mask
}

// The one-word lineMask must equal the per-slot definition on random views
// and lookups, including pages the view never touched.
func TestLineMaskMatchesSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const base, pages = 0xffffffff81000000, 8
	v := NewView()
	for i := 0; i < 4000; i++ {
		v.AddInst(base + uint64(rng.Intn(pages<<pageShift))&^(1<<instShift-1))
	}
	for i := 0; i < 200000; i++ {
		va := base + uint64(rng.Intn((pages+2)<<pageShift))
		if got, want := v.lineMask(va), lineMaskLoop(v, va); got != want {
			t.Fatalf("lineMask(%#x) = %#x, slots give %#x", va, got, want)
		}
	}
}
