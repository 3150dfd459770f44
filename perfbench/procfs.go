package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// The kernel fixes it at 100 for user space on the architectures this
// benchmark runs on, independent of the kernel's internal tick rate.
const clockTick = 10 * time.Millisecond

// procCPU reads a process's CPU time (user + system) so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) is parenthesized and may itself contain
// spaces and parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", stat)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed /proc stat time %q: %w", s, err)
		}
		ticks += v
	}
	return time.Duration(ticks) * clockTick, nil
}

// procHWM reads a process's peak resident set size in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(string(b), "VmHWM")
}

// parseStatusKB extracts one "Key:   N kB" line of /proc/<pid>/status, in
// bytes.
func parseStatusKB(status, key string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed /proc status line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed /proc status line %q: %w", line, err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("no %s line in /proc status", key)
}
