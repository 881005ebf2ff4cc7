//go:build linux

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// cpuTime returns the CPU time a process has consumed so far, summed over
// its live threads from /proc/<pid>/task/*/schedstat. That file is
// nanosecond-resolution; /proc/<pid>/stat counts 10 ms ticks, far too coarse
// to divide a 200 ms slice by. Go does not exit worker threads, so the sum
// over live threads only grows.
func cpuTime(pid int) (time.Duration, error) {
	files, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	var total int64
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited between Glob and ReadFile
		}
		field, _, _ := bytes.Cut(data, []byte(" "))
		ns, err := strconv.ParseInt(string(field), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", f, err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

// procFields reads the "Key:   value [kB]" lines of a /proc status-style file
// and returns the values of the named keys, in order.
func procFields(path string, keys ...string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	values := make([]int64, len(keys))
	found := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		name, rest, ok := bytes.Cut(line, []byte(":"))
		fields := bytes.Fields(rest)
		if !ok || len(fields) == 0 {
			continue
		}
		for i, key := range keys {
			if string(name) == key {
				if values[i], err = strconv.ParseInt(string(fields[0]), 10, 64); err != nil {
					return nil, fmt.Errorf("%s: %s: %w", path, key, err)
				}
				found++
			}
		}
	}
	if found != len(keys) {
		return nil, fmt.Errorf("%s: missing one of %v", path, keys)
	}
	return values, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB(pid int) (float64, error) {
	v, err := procFields(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	if err != nil {
		return 0, err
	}
	return float64(v[0]) / 1024, nil
}

// ioCounts returns this process's cumulative read+write system calls and the
// bytes they moved (sockets included), from /proc/self/io.
func ioCounts() (syscalls, bytes int64, err error) {
	v, err := procFields("/proc/self/io", "syscr", "syscw", "rchar", "wchar")
	if err != nil {
		return 0, 0, err
	}
	return v[0] + v[1], v[2] + v[3], nil
}

// ctxSwitches returns this process's cumulative context switches, voluntary
// plus involuntary, over all threads.
func ctxSwitches() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Nvcsw + ru.Nivcsw
}
