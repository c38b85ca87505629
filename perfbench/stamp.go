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

// hostStamp identifies where and on what a result was measured. Two
// results are comparable only when their stamps agree; journal
// timings are comparable across hosts only on the same journal
// filesystem type (tmpfs isolates them from disk fsync latency).
type hostStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	JournalFS  string `json:"journal_fs"`
	Comparable bool   `json:"journal_timings_comparable"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func (e *env) stamp() hostStamp {
	fs := fsType(e.root)
	return hostStamp{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
		JournalFS:  fs,
		Comparable: fs == "tmpfs",
		Seed:       e.seed,
		Seconds:    e.seconds,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reports the VCS revision the binary was built from; a
// checkout without git metadata reports "unknown".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from statfs's magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	}
	return "magic 0x" + strconv.FormatUint(uint64(st.Type), 16)
}
