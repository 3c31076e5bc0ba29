package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. The hosts this benchmark runs on do no load balancing
// (README.md, "CPU placement"): a thread stays on the CPU it was woken on, so
// whether two busy threads share a CPU is a coin toss per process that decides
// every number of the run. The benchmark therefore places its processes
// itself: every thread of its own on the first CPU it may use, and gbserve on
// the second. Linux only, like the /proc probes in host.go.

// cpuMask is a kernel cpu_set_t of 1024 CPUs.
type cpuMask [16]uint64

func maskOf(cpu int) cpuMask {
	var m cpuMask
	m[cpu/64] = 1 << (cpu % 64)
	return m
}

func getAffinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, fmt.Errorf("sched_getaffinity(%d): %w", tid, e)
	}
	return m, nil
}

func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity(%d): %w", tid, e)
	}
	return nil
}

// serverCPU is where startPlaced puts a child; -1 until placeSelf has found
// two CPUs, and then children start wherever the kernel puts them.
var serverCPU = -1

// placeSelf moves every thread of this process onto the first CPU it may use
// and reserves the second for gbserve. With fewer than two CPUs it does
// nothing.
func placeSelf() error {
	allowed, err := getAffinity(0)
	if err != nil {
		return err
	}
	var cpus []int
	for c := 0; c < 64*len(allowed); c++ {
		if allowed[c/64]&(1<<(c%64)) != 0 {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) < 2 {
		return nil
	}
	// A thread created while the others are being moved inherits its
	// creator's mask, old or new: go round until a pass finds nothing to move.
	own := maskOf(cpus[0])
	for moved := true; moved; {
		moved = false
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			cur, err := getAffinity(tid)
			if err != nil {
				continue // the thread has exited
			}
			if cur != own {
				if err := setAffinity(tid, own); err != nil {
					return err
				}
				moved = true
			}
		}
	}
	serverCPU = cpus[1]
	return nil
}

// startPlaced starts cmd on serverCPU: a child inherits the mask of the thread
// that forks it, so that thread moves there for the length of the fork. The
// child's Go runtime then sees one CPU and runs one P.
func startPlaced(cmd *exec.Cmd) error {
	if serverCPU < 0 {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	own, err := getAffinity(0)
	if err != nil {
		return err
	}
	if err := setAffinity(0, maskOf(serverCPU)); err != nil {
		return err
	}
	startErr := cmd.Start()
	if err := setAffinity(0, own); err != nil {
		if startErr == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		return err
	}
	return startErr
}
