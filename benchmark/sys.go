package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// machine is the header printed before a run's metrics: enough to tell two
// result files from different hosts or commits apart.
type machine struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
	LoadAvg   string `json:"load_average_at_start"`
	Commit    string `json:"commit"`
}

func currentMachine() machine {
	m := machine{NProc: runtime.NumCPU(), GoVersion: runtime.Version(), LoadAvg: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) >= 3 {
			m.LoadAvg = strings.Join(f[:3], " ")
		}
	}
	// The driver's checkout is not a git repository, so the build carries no
	// revision there.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MB;
// 0 where /proc is missing.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set (clear_refs value 5, Linux 4.0 and later), so that the
// next peakRSSMB is the peak since this call. It reports whether that worked.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// stolenSeconds is the CPU time the hypervisor has taken from this machine's
// processors since boot (the steal column of /proc/stat, in ticks of 10 ms);
// 0 where it is not reported.
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		ticks, _ := strconv.ParseFloat(f[8], 64)
		return ticks / 100
	}
	return 0
}

// cpuSeconds is the user+system CPU time the process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
