package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// fingerprint describes the host and the code a report was measured on,
// so numbers from different hosts and commits can be told apart.
func fingerprint() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"commit":      commit,
		"tree_sha256": treeDigest(),
		"go_version":  runtime.Version(),
		"goos":        runtime.GOOS,
		"goarch":      runtime.GOARCH,
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"cpu_model":   cpuModel(),
	}
}

// cpuModel reads the processor model name from /proc/cpuinfo.
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

// treeDigest hashes the Go sources of the module and the benchmark, which
// identifies the code even in a checkout without version control.
func treeDigest() string {
	var files []string
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, ".mod")) {
				files = append(files, p)
			}
			return nil
		})
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
