package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// hostRecord describes the machine and the code a run measured, so figures
// from different hosts or source trees are never mistaken for a delta.
type hostRecord struct {
	CPUModel   string `json:"cpuModel"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	SourceHash string `json:"sourceHash"`
}

func describeHost(root string) hostRecord {
	h := hostRecord{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		SourceHash: sourceHash(root),
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

// sourceHash fingerprints the Go sources and module files under root (the
// benchmark checkout need not be a git repository), skipping build output.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// procWriteBytes returns the process's write_bytes counter from /proc/self/io (0
// when the platform does not expose it).
func procWriteBytes() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// rssBytes returns the resident set of this process from /proc/self/statm.
func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(fields[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// hostControl is a host-speed control shaped like the served workloads
// but built from the standard library only: a loopback net/http server
// that decodes a small JSON body and encodes it back, driven closed-loop
// by two clients of 1,000 requests each.  It returns the median time of
// three repetitions in ms; its drift between runs or hosts bounds how
// much of a change in any other figure the machine alone can explain.
func hostControl() (float64, error) {
	type body struct {
		Traj  int       `json:"traj"`
		T     int64     `json:"t"`
		Alpha float64   `json:"alpha"`
		Xs    []float64 `json:"xs"`
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var b body
		if err := json.NewDecoder(r.Body).Decode(&b); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"results": []body{b, b}})
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}
	hc := &http.Client{Transport: tr}
	payload, _ := json.Marshal(body{Traj: 17, T: 30000, Alpha: 0.2, Xs: []float64{1.5, 2.25, 3.125, 4.0625}})
	url := "http://" + ln.Addr().String() + "/echo"
	var failed atomic.Bool
	reps := make([]float64, 3)
	for k := range reps {
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					resp, err := hc.Post(url, "application/json", bytes.NewReader(payload))
					if err != nil {
						failed.Store(true)
						return
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()
		reps[k] = msSince(t0)
	}
	tr.CloseIdleConnections()
	err = hs.Close()
	if serr := <-done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if failed.Load() {
		return 0, fmt.Errorf("host control: a loopback request failed")
	}
	return median(reps), err
}
