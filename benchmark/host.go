package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host-clock probes. Linux only: the served process's CPU and memory are read
// from /proc.

// selfCPU returns the user+system CPU time this process has consumed.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail with a valid who and pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// fields; it is 100 on every Linux configuration Go supports.
const clockTick = 10 * time.Millisecond

// parseProcStatCPU extracts utime+stime from the text of /proc/<pid>/stat.
// The command name (field 2) may contain spaces, so fields are counted from
// the closing parenthesis.
func parseProcStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad cpu fields %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procCPU returns the user+system CPU time of another process.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// procPeakRSSMB returns the peak resident set (VmHWM) of another process.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("proc status: VmHWM %q: %w", f[0], err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc status of %d: no VmHWM line", pid)
}

// calibrate times a fixed piece of pure-Go work that uses no code of this
// repository: sorting half a million seeded ints. Its spread over a run says how
// steady the host was; it is reported and never used to rescale a metric.
func calibrate() time.Duration {
	rng := rand.New(rand.NewSource(42))
	xs := make([]int, 1<<19)
	for i := range xs {
		xs[i] = rng.Int()
	}
	t0 := time.Now()
	slices.Sort(xs)
	return time.Since(t0)
}

// calibLog collects the calibration samples of one run.
type calibLog struct{ ms []float64 }

func (c *calibLog) sample() { c.ms = append(c.ms, msOf(calibrate())) }

// spread is (max-min)/median of the samples.
func (c *calibLog) spread() float64 {
	if len(c.ms) == 0 {
		return 0
	}
	s := sortedCopy(c.ms)
	return (s[len(s)-1] - s[0]) / median(s)
}
