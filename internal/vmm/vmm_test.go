package vmm

import (
	"testing"
	"testing/quick"

	"repro/internal/buddy"
	"repro/internal/memsim"
)

func setup(t testing.TB) (*memsim.Phys, *buddy.Allocator, *Kmaps, *AddrSpace) {
	t.Helper()
	phys := memsim.NewPhys(1024)
	bud := buddy.New(1024)
	km := NewKmaps(phys.Bytes())
	as, err := NewAddrSpace(phys, bud, km, 2)
	if err != nil {
		t.Fatal(err)
	}
	return phys, bud, km, as
}

func TestMapTranslate(t *testing.T) {
	phys, bud, _, as := setup(t)
	pfn, _ := bud.AllocPages(0, 2)
	va := uint64(UserMmapBase)
	if err := as.MapPage(va, pfn); err != nil {
		t.Fatal(err)
	}
	pa, ok := as.Translate(va + 123)
	if !ok || pa != pfn*memsim.PageSize+123 {
		t.Errorf("translate = %#x, %v", pa, ok)
	}
	// Data written through the PA is visible.
	phys.Write64(pfn*memsim.PageSize, 42)
	if pa2, _ := as.Translate(va); phys.Read64(pa2) != 42 {
		t.Error("translated access sees wrong frame")
	}
}

func TestTranslateUnmappedFails(t *testing.T) {
	_, _, _, as := setup(t)
	if _, ok := as.Translate(UserMmapBase); ok {
		t.Error("unmapped VA translated")
	}
}

func TestUnmap(t *testing.T) {
	_, bud, _, as := setup(t)
	pfn, _ := bud.AllocPages(0, 2)
	va := uint64(UserMmapBase)
	as.MapPage(va, pfn)
	got, ok := as.UnmapPage(va)
	if !ok || got != pfn {
		t.Errorf("unmap = %d, %v", got, ok)
	}
	if _, ok := as.Translate(va); ok {
		t.Error("VA translates after unmap")
	}
	if _, ok := as.UnmapPage(va); ok {
		t.Error("double unmap succeeded")
	}
}

// Mapping an already-mapped VA again redirects it to the new frame.
func TestRemapTranslatesToNewFrame(t *testing.T) {
	_, bud, _, as := setup(t)
	pfn1, _ := bud.AllocPages(0, 2)
	pfn2, _ := bud.AllocPages(0, 2)
	va := uint64(UserMmapBase)
	as.MapPage(va, pfn1)
	as.MapPage(va, pfn2)
	if got, ok := as.Lookup(va); !ok || got != pfn2 {
		t.Errorf("after remap Lookup = %d, %v; want %d", got, ok, pfn2)
	}
}

// A fork child and its parent map the same VA to different frames: a write
// through one space's translation must not show through the other's, and
// repeated translations must stay stable.
func TestForkDivergence(t *testing.T) {
	phys, bud, km, parent := setup(t)
	child, err := NewAddrSpace(phys, bud, km, parent.Ctx())
	if err != nil {
		t.Fatal(err)
	}
	ppfn, _ := bud.AllocPages(0, 2)
	cpfn, _ := bud.AllocPages(0, 2)
	va := uint64(UserMmapBase)
	parent.MapPage(va, ppfn)
	child.MapPage(va, cpfn)
	ppa, _ := parent.Translate(va)
	cpa, _ := child.Translate(va)
	phys.Write64(ppa, 0xdead)
	if got := phys.Read64(cpa); got == 0xdead {
		t.Fatal("child translation aliases parent frame")
	}
	if p2, _ := parent.Translate(va); p2 != ppa {
		t.Error("parent translation unstable")
	}
	if c2, _ := child.Translate(va); c2 != cpa {
		t.Error("child translation unstable")
	}
}

func TestDirectMapTranslation(t *testing.T) {
	_, _, _, as := setup(t)
	pa, ok := as.Translate(memsim.DirectMapVA(5 * memsim.PageSize))
	if !ok || pa != 5*memsim.PageSize {
		t.Errorf("direct map translate = %#x, %v", pa, ok)
	}
	// Beyond physical memory: fails.
	if _, ok := as.Translate(memsim.DirectMapVA(1 << 40)); ok {
		t.Error("direct map translated beyond phys size")
	}
}

func TestVmalloc(t *testing.T) {
	_, bud, km, as := setup(t)
	var pfns []uint64
	for i := 0; i < 3; i++ {
		p, _ := bud.AllocPages(0, 2)
		pfns = append(pfns, p)
	}
	base := km.Vmalloc(pfns)
	for i, p := range pfns {
		pa, ok := as.Translate(base + uint64(i)*memsim.PageSize + 8)
		if !ok || pa != p*memsim.PageSize+8 {
			t.Errorf("vmalloc page %d: pa=%#x ok=%v", i, pa, ok)
		}
	}
	// Guard gap is unmapped.
	if _, ok := as.Translate(base + 3*memsim.PageSize); ok {
		t.Error("guard page translated")
	}
	got := km.Vfree(base, 3)
	if len(got) != 3 {
		t.Errorf("vfree returned %d frames", len(got))
	}
	if _, ok := as.Translate(base); ok {
		t.Error("vmalloc VA translates after vfree")
	}
}

func TestTwoVmallocsDistinct(t *testing.T) {
	_, bud, km, _ := setup(t)
	p1, _ := bud.AllocPages(0, 2)
	p2, _ := bud.AllocPages(0, 2)
	b1 := km.Vmalloc([]uint64{p1})
	b2 := km.Vmalloc([]uint64{p2})
	if b1 == b2 {
		t.Error("vmalloc reused a base")
	}
	if b2 < b1+2*memsim.PageSize {
		t.Error("no guard gap between vmalloc areas")
	}
}

func TestPerCPUTranslation(t *testing.T) {
	_, bud, km, as := setup(t)
	pfn, _ := bud.AllocPages(0, 1)
	va := memsim.PerCPUBase
	km.MapPerCPU(va, pfn)
	pa, ok := as.Translate(va + 16)
	if !ok || pa != pfn*memsim.PageSize+16 {
		t.Errorf("percpu translate = %#x, %v", pa, ok)
	}
}

func TestKernelAllowedGate(t *testing.T) {
	_, _, _, as := setup(t)
	if as.KernelAllowed() {
		t.Error("fresh address space in kernel mode")
	}
	as.InKernel = true
	if !as.KernelAllowed() {
		t.Error("kernel mode not reflected")
	}
}

func TestVMALifecycle(t *testing.T) {
	_, _, _, as := setup(t)
	v1 := as.AddVMA(4)
	v2 := as.AddVMA(2)
	if v2.Start < v1.End+memsim.PageSize {
		t.Error("VMAs overlap or lack guard gap")
	}
	if as.FindVMA(v1.Start+3*memsim.PageSize) != v1 {
		t.Error("FindVMA missed")
	}
	if as.FindVMA(v1.End) == v1 {
		t.Error("FindVMA matched past end")
	}
	as.RemoveVMA(v1)
	if as.FindVMA(v1.Start) != nil {
		t.Error("removed VMA still found")
	}
	if len(as.VMAs()) != 1 {
		t.Errorf("vmas = %d", len(as.VMAs()))
	}
}

func TestBrk(t *testing.T) {
	_, _, _, as := setup(t)
	start, end := as.BrkRange()
	if start != end {
		t.Error("fresh heap not empty")
	}
	old := as.Brk(UserHeapBase + 8192)
	if old != UserHeapBase {
		t.Errorf("old brk = %#x", old)
	}
	_, end = as.BrkRange()
	if end != UserHeapBase+8192 {
		t.Errorf("end = %#x", end)
	}
	// Shrinking below start is refused.
	as.Brk(UserHeapBase - 4096)
	if _, end = as.BrkRange(); end != UserHeapBase+8192 {
		t.Error("brk shrank below start")
	}
}

func TestMappedUserPages(t *testing.T) {
	_, bud, _, as := setup(t)
	want := map[uint64]uint64{}
	for i := 0; i < 5; i++ {
		pfn, _ := bud.AllocPages(0, 2)
		va := uint64(UserMmapBase) + uint64(i)*memsim.PageSize
		as.MapPage(va, pfn)
		want[va] = pfn
	}
	got := as.MappedUserPages()
	if len(got) != len(want) {
		t.Fatalf("got %d pages, want %d", len(got), len(want))
	}
	for i, pm := range got {
		if want[pm.VA] != pm.PFN {
			t.Errorf("va %#x -> %d, want %d", pm.VA, pm.PFN, want[pm.VA])
		}
		if i > 0 && got[i-1].VA >= pm.VA {
			t.Errorf("pages not in ascending VA order: %#x before %#x", got[i-1].VA, pm.VA)
		}
	}
}

func TestReleasePageTables(t *testing.T) {
	_, bud, _, as := setup(t)
	pfn, _ := bud.AllocPages(0, 2)
	as.MapPage(UserMmapBase, pfn)
	free := bud.FreePages()
	nPT := len(as.PTPages())
	if nPT < 4 { // root + 3 levels
		t.Errorf("page-table pages = %d, want >= 4", nPT)
	}
	as.ReleasePageTables()
	if bud.FreePages() != free+uint64(nPT) {
		t.Errorf("page tables not freed: %d vs %d", bud.FreePages(), free+uint64(nPT))
	}
}

func TestPageTableFramesChargedToCtx(t *testing.T) {
	_, bud, _, as := setup(t)
	pfn, _ := bud.AllocPages(0, 2)
	as.MapPage(UserMmapBase, pfn)
	for _, pt := range as.PTPages() {
		ctx, ok := bud.OwnerOf(pt)
		if !ok || ctx != 2 {
			t.Errorf("page table frame %d owned by %d", pt, ctx)
		}
	}
}

func TestMapPageRejectsKernelVA(t *testing.T) {
	_, bud, _, as := setup(t)
	pfn, _ := bud.AllocPages(0, 2)
	if err := as.MapPage(memsim.DirectMapBase, pfn); err == nil {
		t.Error("mapped a kernel VA into user tables")
	}
}

// Property: map → translate → unmap round-trips for arbitrary page-aligned
// user addresses, and unmapped neighbours never translate.
func TestMapTranslateUnmapProperty(t *testing.T) {
	phys := memsim.NewPhys(2048)
	bud := buddy.New(2048)
	km := NewKmaps(phys.Bytes())
	as, err := NewAddrSpace(phys, bud, km, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := func(pageIdx uint16, off uint16) bool {
		va := uint64(UserMmapBase) + uint64(pageIdx)*memsim.PageSize
		pfn, ok := bud.AllocPages(0, 2)
		if !ok {
			return true // pool exhausted under quick's generator: skip
		}
		if err := as.MapPage(va, pfn); err != nil {
			return false
		}
		pa, ok := as.Translate(va + uint64(off)%memsim.PageSize)
		if !ok || pa != pfn*memsim.PageSize+uint64(off)%memsim.PageSize {
			return false
		}
		got, ok := as.UnmapPage(va)
		if !ok || got != pfn {
			return false
		}
		if _, still := as.Translate(va); still {
			return false
		}
		bud.Free(pfn)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
