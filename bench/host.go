package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// peakRSSMB is the process's peak resident set (VmHWM) so far. Each workload
// runs in its own process, so one workload's peak never hides in another's.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostFacts are recorded with a full run so that numbers from two boxes are
// never compared as if they were one.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	L2         string `json:"l2_per_core"`
	DataDirFS  string `json:"data_dir_fs"`
	Commit     string `json:"commit"`
}

func readHost(workers int, dataDir string) hostFacts {
	h := hostFacts{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		GoVersion: runtime.Version(), CPUModel: "unknown", L2: "unknown", DataDirFS: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index2/size"); err == nil {
		h.L2 = strings.TrimSpace(string(b))
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dataDir, &st); err == nil {
		names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
		if n, ok := names[int64(st.Type)]; ok {
			h.DataDirFS = n
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// defaultWorkers is W: one closed-loop worker or client per core, four at
// most, so the load generator never has more threads than the box has cores.
func defaultWorkers() int { return min(runtime.NumCPU(), 4) }
