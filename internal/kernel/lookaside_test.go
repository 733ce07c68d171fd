package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kimage"
	"repro/internal/memsim"
	"repro/internal/schemes"
)

// TestResolveLookasideUnderSyscallChurn drives the full kernel syscall
// surface — mmap/munmap/brk growth, fork, context-heavy getpid/write loops —
// and after every batch checks the memsim resolve lookaside against the
// translator ground truth. This is the system-level companion to the
// memsim-level differential: here the generation bumps come from the real
// vmm epoch plumbing (MapPage, UnmapPage, ReleasePageTables, Vmalloc, Vfree)
// rather than a synthetic counter. The KPTI row runs the same churn under
// SPOT's page-table-switch cost model, whose crossings leave the lookaside
// untouched.
func TestResolveLookasideUnderSyscallChurn(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy cpu.Policy
	}{
		{"default", nil},
		{"kpti", &schemes.SpotPolicy{KPTI: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := newKernel(t)
			if tc.policy != nil {
				k.Core.Policy = tc.policy
			}
			p := mustProc(t, k, "churn-a")
			q := mustProc(t, k, "churn-b")
			rng := rand.New(rand.NewSource(7))

			var regions []uint64
			for batch := 0; batch < 40; batch++ {
				tk := p
				if rng.Intn(2) == 1 {
					tk = q
				}
				switch rng.Intn(6) {
				case 0:
					va, err := k.Syscall(tk, kimage.NRMmap, 4096, 1)
					if err == nil {
						regions = append(regions, va)
					}
				case 1:
					if len(regions) > 0 {
						i := rng.Intn(len(regions))
						k.Syscall(tk, kimage.NRMunmap, regions[i], 4096)
						regions = append(regions[:i], regions[i+1:]...)
					}
				case 2:
					k.Syscall(tk, kimage.NRBrk, 4096)
				case 3:
					pid, err := k.Syscall(tk, kimage.NRFork)
					if err == nil {
						k.ExitPID(int(pid))
					}
				default:
					for i := 0; i < 4; i++ {
						k.Syscall(tk, kimage.NRGetpid)
					}
				}
				if err := k.Mem.VerifyLookaside(); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
			}
		})
	}
}

// The cases below each make a page hot in the lookaside, mutate its
// mapping through the kernel's internal path, and check that the next
// access sees the new mapping. They call the internal mutators rather than
// Syscall on purpose: every Syscall re-asserts the translator, and that
// switch alone bumps the epoch, which would mask a mutation that forgot to.

// makeHot switches to tk, resolves va through the lookaside, and asserts
// the page is now memoized.
func makeHot(t *testing.T, k *Kernel, tk *Task, va uint64) {
	t.Helper()
	k.switchTo(tk)
	pa, ok := k.Mem.Resolve(va, 1)
	if !ok {
		t.Fatalf("%#x does not resolve", va)
	}
	if k.Mem.ResolveFast(va, 1) != pa {
		t.Fatalf("%#x not memoized after Resolve", va)
	}
}

// readLK reads n bytes at va through the lookaside under the active
// translator, byte by byte as the core's loads do.
func readLK(t *testing.T, k *Kernel, va uint64, n int) []byte {
	t.Helper()
	out := make([]byte, n)
	for i := range out {
		pa, ok := k.Mem.Resolve(va+uint64(i), 1)
		if !ok {
			t.Fatalf("read %#x faults", va+uint64(i))
		}
		out[i] = k.Phys.Read8(pa)
	}
	return out
}

// writeLK is readLK's store-side twin.
func writeLK(t *testing.T, k *Kernel, va uint64, data []byte) {
	t.Helper()
	for i, b := range data {
		pa, ok := k.Mem.Resolve(va+uint64(i), 1)
		if !ok {
			t.Fatalf("write %#x faults", va+uint64(i))
		}
		k.Phys.Write8(pa, b)
	}
}

func verifyLK(t *testing.T, k *Kernel) {
	t.Helper()
	if err := k.Mem.VerifyLookaside(); err != nil {
		t.Fatal(err)
	}
}

// kernelMode flips the privilege state the way a kernel entry does.
func kernelMode(k *Kernel, tk *Task) {
	tk.AS.InKernel = true
	k.Mem.SetKernelMode(true)
}

// An access to a hot user page after munmap must fault, not hit the
// memoized translation.
func TestLookasideMunmapHotPageFaults(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "munmap")
	va, err := k.Syscall(p, kimage.NRMmap, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.CopyToUser(p, va, []byte("hot")); err != nil {
		t.Fatal(err)
	}
	makeHot(t, k, p, va)
	if got := readLK(t, k, va, 3); string(got) != "hot" {
		t.Fatalf("hot page reads %q", got)
	}
	if _, _, err := k.doMunmap(p, va, 4096); err != nil {
		t.Fatal(err)
	}
	if _, ok := k.Mem.Resolve(va, 1); ok {
		t.Error("hot page still resolves after munmap")
	}
	verifyLK(t, k)
}

// A fork child's writes must not be visible through the parent's memoized
// translations, and vice versa: both spaces map the same VA to different
// frames, and each is read and written through the lookaside.
func TestForkWriteDivergenceThroughLookaside(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "forkdiv")
	va, err := k.Syscall(p, kimage.NRMmap, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.CopyToUser(p, va, []byte("parent")); err != nil {
		t.Fatal(err)
	}
	pid, err := k.Syscall(p, kimage.NRFork)
	if err != nil {
		t.Fatal(err)
	}
	var child *Task
	for _, c := range k.Tasks() {
		if c.PID == int(pid) {
			child = c
		}
	}
	if child == nil {
		t.Fatalf("fork child pid %d not found", pid)
	}

	// Warm va under each space in turn, then diverge the child through
	// its own translation.
	makeHot(t, k, p, va)
	makeHot(t, k, child, va)
	writeLK(t, k, va, []byte("child!"))
	verifyLK(t, k)
	if got := readLK(t, k, va, 6); string(got) != "child!" {
		t.Errorf("child sees %q after its own write", got)
	}
	k.switchTo(p)
	if got := readLK(t, k, va, 6); string(got) != "parent" {
		t.Errorf("parent sees %q after child write", got)
	}
	verifyLK(t, k)
	if got, _ := k.ReadUser(p, va, 6); string(got) != "parent" {
		t.Errorf("parent's page walk sees %q", got)
	}
	k.ExitPID(int(pid))
}

// A process that exits and a new process in the same cgroup (same ctx,
// same user VA layout) must not share translations: the successor's first
// mmap lands on the predecessor's VA and must read its own zeroed frame.
func TestLookasideExitThenSameCgroupProcess(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "reuse")
	va, err := k.Syscall(p, kimage.NRMmap, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.CopyToUser(p, va, []byte("old")); err != nil {
		t.Fatal(err)
	}
	makeHot(t, k, p, va)
	k.Exit(p)

	q := mustProc(t, k, "reuse")
	if q.Ctx() != p.Ctx() {
		t.Fatalf("successor ctx %d, want %d", q.Ctx(), p.Ctx())
	}
	k.switchTo(q)
	if _, ok := k.Mem.Resolve(va, 1); ok {
		t.Fatal("successor resolves its predecessor's page before mapping it")
	}
	qva, err := k.Syscall(q, kimage.NRMmap, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if qva != va {
		t.Fatalf("successor mmap at %#x, want the reused VA %#x", qva, va)
	}
	if got := readLK(t, k, va, 3); string(got) != "\x00\x00\x00" {
		t.Errorf("successor reads %q at the reused VA", got)
	}
	verifyLK(t, k)
}

// A hot vmalloc page must stop resolving once it is freed.
func TestLookasideVfreeHotVmallocPage(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "vfree")
	pfn, ok := k.Buddy.AllocPages(0, p.Ctx())
	if !ok {
		t.Fatal("oom")
	}
	base := k.Km.Vmalloc([]uint64{pfn})
	kernelMode(k, p)
	makeHot(t, k, p, base)
	writeLK(t, k, base, []byte("kstack"))
	if got := readLK(t, k, base, 6); string(got) != "kstack" {
		t.Fatalf("vmalloc page reads %q", got)
	}
	if freed := k.Km.Vfree(base, 1); len(freed) != 1 || freed[0] != pfn {
		t.Fatalf("Vfree returned %v, want [%d]", freed, pfn)
	}
	if _, ok := k.Mem.Resolve(base, 1); ok {
		t.Error("hot vmalloc page still resolves after Vfree")
	}
	verifyLK(t, k)
}

// Remapping a hot per-cpu page must redirect the next access to the new
// frame.
func TestLookasidePerCPURemap(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "percpu")
	pfn1, ok1 := k.Buddy.AllocPages(0, p.Ctx())
	pfn2, ok2 := k.Buddy.AllocPages(0, p.Ctx())
	if !ok1 || !ok2 {
		t.Fatal("oom")
	}
	k.Phys.Write64(pfn1*memsim.PageSize, 0x1111)
	k.Phys.Write64(pfn2*memsim.PageSize, 0x2222)
	va := uint64(memsim.PerCPUBase)
	k.Km.MapPerCPU(va, pfn1)
	kernelMode(k, p)
	makeHot(t, k, p, va)
	if pa, _ := k.Mem.Resolve(va, 8); k.Phys.Read64(pa) != 0x1111 {
		t.Fatalf("per-cpu page reads %#x before remap", k.Phys.Read64(pa))
	}
	k.Km.MapPerCPU(va, pfn2)
	pa, ok := k.Mem.Resolve(va, 8)
	if !ok || pa != pfn2*memsim.PageSize {
		t.Fatalf("per-cpu resolve after remap = %#x, %v; want %#x", pa, ok, pfn2*memsim.PageSize)
	}
	if got := k.Phys.Read64(pa); got != 0x2222 {
		t.Errorf("per-cpu page reads %#x after remap, want 0x2222", got)
	}
	verifyLK(t, k)
}
