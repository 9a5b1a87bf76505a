package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// provenanceInfo says where and how a run was made.
type provenanceInfo struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	CPU          string  `json:"cpu"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Go           string  `json:"go"`
	Clients      int     `json:"clients"`
	Loop         string  `json:"loop"`
	Started      string  `json:"started"`
}

func provenance(cfg config) provenanceInfo {
	return provenanceInfo{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Seconds:      cfg.seconds,
		Trace:        cfg.trace,
		Commit:       gitCommit("."),
		SourceSHA256: sourceDigest("."),
		CPU:          cpuModel(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Go:           runtime.Version(),
		Clients:      cfg.clients,
		Loop:         "closed",
		Started:      time.Now().UTC().Format(time.RFC3339),
	}
}

// sizeInfo is a workload's size next to the cache capacities it is sized
// against.
type sizeInfo struct {
	Topology         string `json:"topology"`
	TopologySeed     int64  `json:"topology_seed"`
	Peers            int    `json:"peers"`
	Stores           int    `json:"stores"`
	Depth            int    `json:"depth"`
	FactsPerStore    int    `json:"facts_per_store"`
	Domain           int    `json:"domain"`
	DistinctQueries  int    `json:"distinct_queries"`
	AddEvery         int    `json:"add_every"`
	Journal          bool   `json:"journal"`
	ReformLRUEntries int    `json:"reform_lru_entries"`
	FragCacheEntries int    `json:"fragcache_entries"`
	FragCacheBytes   int    `json:"fragcache_bytes"`
}

func sizes(in *input) sizeInfo {
	p := in.spec.Params
	return sizeInfo{
		Topology:         p.Topology.String(),
		TopologySeed:     p.Seed,
		Peers:            p.Peers,
		Stores:           len(in.stores),
		Depth:            in.spec.Depth,
		FactsPerStore:    p.FactsPerStore,
		Domain:           p.DomainSize,
		DistinctQueries:  len(in.queries),
		AddEvery:         in.w.addEvery,
		Journal:          in.w.journal,
		ReformLRUEntries: reformLRUEntries,
		FragCacheEntries: fragCacheEntries,
		FragCacheBytes:   fragCacheBytes,
	}
}

// gitCommit reads the checked-out commit from root/.git without running
// git; a checkout exported without .git reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if f, err := os.Open(filepath.Join(root, ".git", "packed-refs")); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (hidden
// directories skipped), identifying the measured code when there is no
// commit to name.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		h.Write([]byte(filepath.ToSlash(f) + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuModel returns the first CPU model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
