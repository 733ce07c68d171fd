package kernel

import (
	"math/rand"
	"testing"

	"repro/internal/kimage"
	"repro/internal/memsim"
	"repro/internal/schemes"
)

// TestSyscallChurn drives a random (seeded) syscall storm across several
// processes under the Perspective policy and checks the kernel's global
// invariants afterwards: no ISA handler ever faulted, memory is not leaked
// beyond slab caches, and DSV ownership of live resources is consistent.
func TestSyscallChurn(t *testing.T) {
	k := newKernel(t)
	k.Core.Policy = schemes.NewPerspective(k.DSV, k.ISV, schemes.Perspective)

	rng := rand.New(rand.NewSource(99))
	freeBaseline := k.Buddy.FreePages()
	var procs []*Task
	for i := 0; i < 4; i++ {
		p := mustProc(t, k, "churn")
		procs = append(procs, p)
	}

	type state struct {
		buf  uint64
		fds  []uint64
		maps []uint64 // populated 2-page mmaps
	}
	st := make(map[*Task]*state)
	for _, p := range procs {
		buf, err := k.Syscall(p, kimage.NRMmap, 4096, 1)
		if err != nil {
			t.Fatal(err)
		}
		st[p] = &state{buf: buf}
	}

	for i := 0; i < 1500; i++ {
		p := procs[rng.Intn(len(procs))]
		s := st[p]
		switch rng.Intn(10) {
		case 0:
			if _, err := k.Syscall(p, kimage.NRGetpid); err != nil {
				t.Fatal(err)
			}
		case 1:
			fd, err := k.Syscall(p, kimage.NROpen)
			if err != nil {
				t.Fatal(err)
			}
			s.fds = append(s.fds, fd)
		case 2:
			if len(s.fds) > 0 {
				i := rng.Intn(len(s.fds))
				k.Syscall(p, kimage.NRClose, s.fds[i])
				s.fds = append(s.fds[:i], s.fds[i+1:]...)
			}
		case 3:
			if len(s.fds) > 0 {
				fd := s.fds[rng.Intn(len(s.fds))]
				k.Rewind(p, int(fd))
				if _, err := k.Syscall(p, kimage.NRWrite, fd, s.buf, uint64(8+rng.Intn(512))); err != nil {
					t.Fatal(err)
				}
			}
		case 4:
			if len(s.fds) > 0 {
				fd := s.fds[rng.Intn(len(s.fds))]
				k.Rewind(p, int(fd))
				if _, err := k.Syscall(p, kimage.NRRead, fd, s.buf, 256); err != nil {
					t.Fatal(err)
				}
			}
		case 5:
			va, err := k.Syscall(p, kimage.NRMmap, 2*memsim.PageSize, 1)
			if err != nil {
				t.Fatal(err)
			}
			s.maps = append(s.maps, va)
		case 6:
			if len(s.maps) > 0 {
				i := rng.Intn(len(s.maps))
				if _, err := k.Syscall(p, kimage.NRMunmap, s.maps[i], 2*memsim.PageSize); err != nil {
					t.Fatal(err)
				}
				s.maps = append(s.maps[:i], s.maps[i+1:]...)
			}
		case 7:
			k.Syscall(p, kimage.NRSchedYield)
		case 8:
			pid, err := k.Syscall(p, kimage.NRFork)
			if err != nil {
				t.Fatal(err)
			}
			k.ExitPID(int(pid))
		case 9:
			// Synthetic syscall: exercises generated service chains.
			if _, err := k.Syscall(p, kimage.NRGenBase+rng.Intn(20)); err != nil {
				t.Fatal(err)
			}
		}
	}

	if k.Stats.HandlerFaults != 0 {
		t.Fatalf("%d handler faults during churn (last: %+v)", k.Stats.HandlerFaults, k.LastFault())
	}

	// Live resources still DSV-owned by their processes.
	for _, p := range procs {
		if !k.DSV.Owns(p.Ctx(), p.TaskVA()) {
			t.Errorf("pid %d lost task-struct ownership", p.PID)
		}
		for _, va := range st[p].maps {
			if !k.DSV.Owns(p.Ctx(), va) {
				t.Errorf("pid %d lost mmap ownership of %#x", p.PID, va)
			}
		}
	}

	// Teardown everything; memory must return (slab may cache a few empty
	// pages per pool).
	for _, p := range procs {
		k.Syscall(p, kimage.NRExit)
	}
	leak := int64(freeBaseline) - int64(k.Buddy.FreePages())
	if leak > 8 {
		t.Errorf("leaked %d pages after teardown", leak)
	}
	if leak < 0 {
		t.Errorf("double free: %d extra pages", -leak)
	}
}

// FuzzSyscallSequence interprets the input as a syscall script (one op per
// byte) against a Perspective-policy kernel and checks the same global
// invariants as the churn test: no handler faults, no frame leaks beyond
// slab caches, DSV ownership intact. The seed corpus runs on every
// `go test -run=Fuzz -fuzztime=0` (the `make fuzzseed` CI gate); a real
// fuzzing session (`go test -fuzz=FuzzSyscallSequence`) explores further.
func FuzzSyscallSequence(f *testing.F) {
	f.Add([]byte{0, 1, 3, 4, 2, 5, 6, 7, 8, 9})
	f.Add([]byte{8, 8, 8, 8, 8, 8, 8, 8})             // fork storm
	f.Add([]byte{1, 1, 1, 1, 2, 2, 2, 2, 1, 2})       // fd churn
	f.Add([]byte{5, 5, 5, 6, 6, 6, 5, 6, 5, 6})       // map/unmap churn
	f.Add([]byte{9, 9, 9, 9, 0, 9, 9, 9, 9})          // generated service chains
	f.Add([]byte("interpret arbitrary bytes safely")) // arbitrary ops
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 300 {
			script = script[:300]
		}
		k := newKernel(t)
		k.Core.Policy = schemes.NewPerspective(k.DSV, k.ISV, schemes.Perspective)
		p := mustProc(t, k, "fuzz")
		freeBaseline := k.Buddy.FreePages()
		buf, err := k.Syscall(p, kimage.NRMmap, 4096, 1)
		if err != nil {
			t.Fatal(err)
		}
		var fds []uint64
		var maps []uint64
		for i, op := range script {
			switch op % 10 {
			case 0:
				k.Syscall(p, kimage.NRGetpid)
			case 1:
				if fd, err := k.Syscall(p, kimage.NROpen); err == nil {
					fds = append(fds, fd)
				}
			case 2:
				if len(fds) > 0 {
					k.Syscall(p, kimage.NRClose, fds[len(fds)-1])
					fds = fds[:len(fds)-1]
				}
			case 3:
				if len(fds) > 0 {
					fd := fds[int(op/10)%len(fds)]
					k.Rewind(p, int(fd))
					k.Syscall(p, kimage.NRWrite, fd, buf, uint64(8+i%512))
				}
			case 4:
				if len(fds) > 0 {
					fd := fds[int(op/10)%len(fds)]
					k.Rewind(p, int(fd))
					k.Syscall(p, kimage.NRRead, fd, buf, 256)
				}
			case 5:
				if va, err := k.Syscall(p, kimage.NRMmap, 2*memsim.PageSize, 1); err == nil {
					maps = append(maps, va)
				}
			case 6:
				if len(maps) > 0 {
					k.Syscall(p, kimage.NRMunmap, maps[len(maps)-1], 2*memsim.PageSize)
					maps = maps[:len(maps)-1]
				}
			case 7:
				k.Syscall(p, kimage.NRSchedYield)
			case 8:
				if pid, err := k.Syscall(p, kimage.NRFork); err == nil {
					k.ExitPID(int(pid))
				}
			case 9:
				k.Syscall(p, kimage.NRGenBase+int(op/10)%20)
			}
		}
		if k.Stats.HandlerFaults != 0 {
			t.Fatalf("script %v: %d handler faults (last: %+v)",
				script, k.Stats.HandlerFaults, k.LastFault())
		}
		if !k.DSV.Owns(p.Ctx(), p.TaskVA()) {
			t.Error("task lost DSV ownership of its task struct")
		}
		// Translation-memo coherence: after the whole script (mmap,
		// munmap, fork, exit, generated chains), every current resolve-
		// lookaside entry must agree with the active translator's walk.
		if err := k.Mem.VerifyLookaside(); err != nil {
			t.Errorf("script %v: %v", script, err)
		}
		// Unmapping the scratch buffer and live maps, then exiting, must
		// return the frames (slab pools may cache a few empty pages).
		k.Syscall(p, kimage.NRExit)
		leak := int64(freeBaseline) - int64(k.Buddy.FreePages())
		if leak > 8 {
			t.Errorf("script leaked %d pages", leak)
		}
	})
}

// TestForkStorm exercises deep process churn: repeated fork+exit cycles must
// neither leak frames nor corrupt the parent.
func TestForkStorm(t *testing.T) {
	k := newKernel(t)
	p := mustProc(t, k, "storm")
	va, err := k.Syscall(p, kimage.NRMmap, 4*memsim.PageSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	k.CopyToUser(p, va, []byte("canary"))
	free0 := k.Buddy.FreePages()
	for i := 0; i < 40; i++ {
		pid, err := k.Syscall(p, kimage.NRFork)
		if err != nil {
			t.Fatalf("fork %d: %v", i, err)
		}
		k.ExitPID(int(pid))
	}
	if got := k.Buddy.FreePages(); got+4 < free0 {
		t.Errorf("fork storm leaked %d pages", free0-got)
	}
	data, _ := k.ReadUser(p, va, 6)
	if string(data) != "canary" {
		t.Errorf("parent memory corrupted: %q", data)
	}
	if k.Stats.HandlerFaults != 0 {
		t.Errorf("handler faults = %d", k.Stats.HandlerFaults)
	}
}

// TestManyProcessesIsolated verifies pairwise DSV disjointness of task
// structures across many containers.
func TestManyProcessesIsolated(t *testing.T) {
	k := newKernel(t)
	var tasks []*Task
	for i := 0; i < 12; i++ {
		p, err := k.CreateProcess(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, p)
	}
	for i, a := range tasks {
		for j, b := range tasks {
			if i == j {
				continue
			}
			if k.DSV.Owns(a.Ctx(), b.TaskVA()) {
				t.Errorf("ctx %d owns ctx %d's task struct", a.Ctx(), b.Ctx())
			}
		}
	}
}
