package kernel

import (
	"testing"

	"repro/internal/kimage"
	"repro/internal/schemes"
)

func benchKernel(b *testing.B) (*Kernel, *Task) {
	k, err := New(DefaultConfig(), testImg)
	if err != nil {
		b.Fatal(err)
	}
	p, err := k.CreateProcess("bench")
	if err != nil {
		b.Fatal(err)
	}
	return k, p
}

// BenchmarkSyscallGetpid is the kernel-entry round trip: trap, handler
// execution on the simulated core, return — the end-to-end unit every
// LEBench test multiplies.
func BenchmarkSyscallGetpid(b *testing.B) {
	k, p := benchKernel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Syscall(p, kimage.NRGetpid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyscallGetpidKPTI is the same round trip under a KPTI policy,
// which adds the page-table-switch cycle cost at entry and exit.
func BenchmarkSyscallGetpidKPTI(b *testing.B) {
	k, p := benchKernel(b)
	k.Core.Policy = &schemes.SpotPolicy{KPTI: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Syscall(p, kimage.NRGetpid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSyscallWrite exercises the user-memory copy path (buffer
// translation + page-chunked CopyToUser/ReadUser) on top of the trap cost.
func BenchmarkSyscallWrite(b *testing.B) {
	k, p := benchKernel(b)
	buf, err := k.Syscall(p, kimage.NRMmap, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	fd, err := k.Syscall(p, kimage.NROpen)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Rewind(p, int(fd))
		if _, err := k.Syscall(p, kimage.NRWrite, fd, buf, 256); err != nil {
			b.Fatal(err)
		}
	}
}
