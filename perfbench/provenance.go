package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"bagconsistency/internal/buildinfo"
)

// leftOut names what the benchmark deliberately does not measure.
var leftOut = []string{
	"overload and admission policy: they need more connections than the daemon has workers; EXP-002/003 remain the evidence",
	"/v1/batch",
	"disk-tier reads after a restart: cmd/bench's restart family covers them",
}

// provenance describes a run: what was built, where it ran, and what it
// sent.
func (b *bench) provenance(genSeconds float64, setups []setup, plain *phase) map[string]any {
	flags := []string{"-addr", "127.0.0.1:0"}
	if b.wl.dataDir {
		flags = append(flags, "-data-dir", "<fresh directory per start>")
	}
	return map[string]any{
		"workload": b.wl.name,
		"why":      b.wl.why,
		"seed":     b.cfg.seed,
		"seconds":  b.cfg.seconds,
		"trace":    b.cfg.trace,
		// runner holds the commit (when built in a git work tree), the Go
		// version, nproc and GOMAXPROCS.
		"runner":             buildinfo.Runner(),
		"source_sha256":      sourceDigest(b.cfg.root),
		"daemon_version":     daemonVersion(b.cfg.daemon),
		"clients":            clients,
		"daemon_flags":       flags,
		"distinct_items":     len(b.in.items),
		"distinct_bodies":    len(b.in.bodies),
		"timed_pool":         len(b.in.timed),
		"mean_request_bytes": float64(plain.res.reqBytes) / float64(len(plain.res.samples)),
		"requests":           len(plain.res.samples),
		"exhausted_pool":     plain.res.exhausted,
		"wrapped":            b.in.wrap && len(plain.res.samples) > len(b.in.timed),
		"generation_s":       genSeconds,
		"setups":             setups,
		"left_out":           leftOut,
	}
}

// sourceDigest hashes every go.mod and .go file under root outside
// hidden directories: the identity of the code under test in a plain
// source checkout, which has no commit to name.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

func daemonVersion(bin string) string {
	out, err := exec.Command(bin, "-version").Output()
	if err != nil {
		return "unknown: " + err.Error()
	}
	return string(bytes.TrimSpace(out))
}
