package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"dropzero/internal/loadgen"
)

// Filesystem magic numbers (statfs f_type) of RAM-backed filesystems, where
// fsync costs nothing and a durable workload would measure nothing.
const (
	tmpfsMagic = 0x01021994
	ramfsMagic = 0x858458f6
)

var fsNames = map[int64]string{
	0xef53:     "ext2/3/4",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x01021994: "tmpfs",
	0x858458f6: "ramfs",
	0x65735546: "fuse",
	0x6969:     "nfs",
}

// fsType returns the filesystem type of dir as a name and whether it is
// RAM-backed.
func fsType(dir string) (string, bool, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", false, err
	}
	t := int64(st.Type)
	name, ok := fsNames[t]
	if !ok {
		name = fmt.Sprintf("0x%x", t)
	}
	return name, t == tmpfsMagic || t == ramfsMagic, nil
}

// envStamp is the environment a run's numbers belong to.
func envStamp(fs string) string {
	return fmt.Sprintf("env: go=%s GOMAXPROCS=%d nproc=%d git=%s datadir_fs=%s os=%s/%s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), gitSHA(), fs, runtime.GOOS, runtime.GOARCH)
}

// gitSHA identifies the source under test: $GIT_SHA or $GITHUB_SHA when set,
// else the working tree's HEAD, else "unknown" (a source export is not a
// repository).
func gitSHA() string {
	for _, k := range []string{"GIT_SHA", "GITHUB_SHA"} {
		if v := os.Getenv(k); v != "" {
			return v
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsyncProbe times n raw 4 KiB write+fsync pairs on a scratch file in dir —
// the disk's own cost floor under the WAL — and returns the histogram.
func fsyncProbe(dir string, n int) (*loadgen.Hist, error) {
	path := filepath.Join(dir, "fsync-probe")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 4096)
	h := new(loadgen.Hist)
	for i := 0; i < n; i++ {
		buf[0] = byte(i)
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			return nil, err
		}
		h.Record(time.Since(t0))
	}
	return h, nil
}

// cpuProbe times a fixed single-threaded computation — SHA-256 over 8 MiB —
// and returns the fastest of n tries. It moves only with the machine, never
// with the program, so a run's figures can be read against it.
func cpuProbe(n int) time.Duration {
	buf := make([]byte, 8<<20)
	best := time.Duration(math.MaxInt64)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		sha256.Sum256(buf)
		best = min(best, time.Since(t0))
	}
	return best
}

// procSample is the process-wide cost counters at one instant.
type procSample struct {
	cpu     time.Duration // user + system CPU
	mallocs uint64
	gcs     uint32
}

func sampleProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
	}
}

// peakRSSMB is the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
