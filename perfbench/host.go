package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostInfo is the host and source record every result carries.
type hostInfo struct {
	Nproc      int    `json:"nproc"`
	NumCPU     int    `json:"numcpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	// Commit is the git commit when the checkout is a repository, else
	// "unknown"; TreeSHA256 identifies the Go sources either way.
	Commit     string `json:"commit"`
	TreeSHA256 string `json:"tree_sha256"`
}

func host() hostInfo {
	h := hostInfo{
		Nproc:      nproc(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	h.TreeSHA256 = treeDigest(".")
	return h
}

// nproc counts the CPUs this process may run on, as nproc(1) does, from
// the Cpus_allowed_list in /proc/self/status; it falls back to NumCPU.
func nproc() int {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return runtime.NumCPU()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		list, ok := strings.CutPrefix(sc.Text(), "Cpus_allowed_list:")
		if !ok {
			continue
		}
		n := 0
		for _, part := range strings.Split(strings.TrimSpace(list), ",") {
			lo, hi, found := strings.Cut(part, "-")
			a, err1 := strconv.Atoi(lo)
			b := a
			var err2 error
			if found {
				b, err2 = strconv.Atoi(hi)
			}
			if err1 != nil || err2 != nil {
				return runtime.NumCPU()
			}
			n += b - a + 1
		}
		return n
	}
	return runtime.NumCPU()
}

// treeDigest hashes the .go and go.mod files under root (skipping dot
// directories such as the build directory), so a result names the exact
// sources it measured even outside a git checkout.
func treeDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
