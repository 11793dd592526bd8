package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The calibration kernel is fixed work that uses none of the repository's
// code: an integer sort and a float32 dot product, both on buffers
// allocated once. The end-to-end loop runs it after every op and divides
// op CPU times by its median CPU time in the same run. CPU time leaves out
// the time the hypervisor gives the CPU to other tenants; the ratio then
// cancels a host that runs everything slower for a while (a busy sibling
// hyperthread, frequency changes), which moves the op times and the
// kernel time together. A change to the program moves the op times only.
const (
	calibInts   = 8000
	calibFloats = 64 * 1024
	calibDots   = 4

	// calRefMS is the kernel time of the reference host that setup_s is
	// scaled to: setup_s = set-up CPU time × calRefMS / kernel time.
	calRefMS = 1.0
	// setupCalRuns is how many times the kernel runs after each set-up to
	// measure the host speed set-up ran at.
	setupCalRuns = 25
)

type calibKernel struct {
	ints   []int
	fa, fb []float32
	sink   float32
}

func newCalibKernel() *calibKernel {
	k := &calibKernel{ints: make([]int, calibInts), fa: make([]float32, calibFloats), fb: make([]float32, calibFloats)}
	for i := range k.fa {
		k.fa[i], k.fb[i] = float32(i%13)*0.1, float32(i%7)*0.2
	}
	return k
}

// run does the fixed work once and returns the CPU time of the thread
// that did it, in ms.
func (k *calibKernel) run() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuTime(clockThreadCPU)
	s := uint64(0x9E3779B97F4A7C15)
	for i := range k.ints {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		k.ints[i] = int(s >> 1)
	}
	slices.Sort(k.ints)
	var acc float32
	for r := 0; r < calibDots; r++ {
		for i, a := range k.fa {
			acc += a * k.fb[i]
		}
	}
	k.sink += acc + float32(k.ints[calibInts/2]&1)
	return float64(cpuTime(clockThreadCPU)-t0) / 1e6
}

// Linux CPU-time clocks: all threads of the process, or the calling thread.
// Both leave out steal time, the time the hypervisor ran other guests.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// cpuTime reads a CPU-time clock in ns.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}
