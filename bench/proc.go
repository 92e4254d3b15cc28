package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux ABI Go supports.
const clockTick = 100

// parseStatCPU extracts utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command, want at least 13", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// parseStatusKB extracts one "Key:   123 kB" line from the contents of
// /proc/<pid>/status.
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, key+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed %s line %q", key, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// cpuClockID is the POSIX CPU-time clock of another process, as
// clock_getcpuclockid(3) makes it: the bitwise complement of the pid above
// three flag bits, of which 2 (CPUCLOCK_SCHED) asks for the scheduler's
// run time of the whole thread group.
func cpuClockID(pid int) uintptr { return uintptr(uint32(^pid<<3 | 2)) }

// procCPU reads the CPU time (user+system) a process has used so far, from
// its CPU-time clock: nanosecond resolution and threads that are running
// included up to the instant of the call, so that a slice of a few
// milliseconds can be charged. Where that clock cannot be read it falls back
// to utime+stime of /proc/<pid>/stat, in 10 ms ticks.
func procCPU(pid int) (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, cpuClockID(pid), uintptr(unsafe.Pointer(&ts)), 0); errno == 0 {
		return time.Duration(ts.Nano()), nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// procPeakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(data), "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(kb) / 1024, nil
}

// stamp identifies the machine and code a result came from, so numbers from
// different machines or commits are never compared silently.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func newStamp(root string) stamp {
	st := stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	// A driver's checkout is not a git repository; the stamp then says so.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
			st.Commit = strings.TrimSpace(string(out))
		}
	}
	return st
}
