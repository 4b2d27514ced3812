package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel CPU set of up to 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs the process may run on, or nil if the kernel
// does not say.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return nil
	}
	var cpus []int
	for i, w := range m {
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				cpus = append(cpus, i*64+b)
			}
		}
	}
	return cpus
}

// pinProcess confines every thread of the process to cpus. A thread the
// runtime starts later inherits the set of the thread that starts it.
func pinProcess(cpus []int) error {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (c % 64)
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid),
			unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
		if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited
			return errno
		}
	}
	return nil
}
