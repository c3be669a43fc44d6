package main

// env.go records the conditions every result was measured under, and
// writes the traced run's artefacts.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"github.com/afrinet/observatory/internal/core"
)

// runEnv is the environment recorded with every result.
type runEnv struct {
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Trace         int     `json:"trace"`
	NumCPU        int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	SourceSHA256  string  `json:"source_sha256"`
	DataDirFS     string  `json:"data_dir_fs"`
	Transport     string  `json:"transport"`
	FlushEvery    int     `json:"store_flush_every"`
	SnapshotEvery int     `json:"journal_snapshot_every"`
	QueryDeadline string  `json:"fed_query_deadline"`
	HedgeAfter    string  `json:"fed_hedge_after"`
	Clients       int     `json:"clients"`
	Fleet         *string `json:"fleet,omitempty"`
}

// The durability settings every controller and shard is opened with:
// the results store's memtable flush threshold (the store's default) and
// no automatic journal snapshots, so journal.log growth is all appends.
const (
	storeFlushEvery      = 1024
	journalSnapshotEvery = 0
)

func recordEnv(root, dataDir, workload string, seed int64, trace int) runEnv {
	e := runEnv{
		Workload:      workload,
		Seed:          seed,
		Trace:         trace,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		Commit:        gitCommit(root),
		SourceSHA256:  sourceDigest(root),
		DataDirFS:     fsType(dataDir),
		Transport:     "in-process httptest (no sockets)",
		FlushEvery:    storeFlushEvery,
		SnapshotEvery: journalSnapshotEvery,
		QueryDeadline: fedQueryDeadline.String(),
		HedgeAfter:    fedHedgeAfter.String(),
		Clients:       1,
	}
	var cfg *fleetConfig
	switch workload {
	case "fleet-sync":
		cfg = &fleetSyncConfig
	case "fed-query-mix":
		cfg = &fedQueryConfig
	}
	if cfg != nil {
		e.Clients = cfg.probeClients
		if cfg.analyst {
			e.Clients++
		}
		f := fmt.Sprintf("probes=%d tasks_per_probe=%d in_flight_per_country=%d sync_max=%d preload=%d shards=%d lease_max_default=%d",
			cfg.probes, tasksPerProbe, inFlightPerCountry, syncMax, cfg.preload, cfg.shards, core.DefaultLeaseMax)
		e.Fleet = &f
	}
	return e
}

// gitCommit reads HEAD from the checkout's .git directory, if any.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown (" + ref + ")"
}

// sourceDigest hashes the program's Go sources and go.mod, so results
// from a checkout without git history still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != root) {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00", rel)
		if fh, err := os.Open(f); err == nil {
			_, _ = io.Copy(h, fh)
			fh.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext2/3/4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x2FC12FC1: "zfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// writeTrace writes the traced pass's spans, the slowest request traces
// the controllers kept, and the per-layer summary, then prints the
// summary.
func writeTrace(build, name string, seed int64, tr *Tracer, plain, traced *outcome) error {
	dir := filepath.Join(build, "trace", fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := WriteSpans(filepath.Join(dir, "spans.jsonl"), tr.Spans()); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(traced.slowest, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "slowest.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	var b strings.Builder
	clients := float64(traced.clients)
	fmt.Fprintf(&b, "%s seed %d: per-layer time over the traced window (%.2fs x %d clients)\n",
		name, seed, traced.wall.Seconds(), traced.clients)
	fmt.Fprintf(&b, "%-22s %10s %12s %12s %8s\n", "layer", "count", "busy_s", "self_s", "share")
	for _, r := range traced.layerRows {
		fmt.Fprintf(&b, "%-22s %10d %12.4f %12.4f %7.1f%%\n", r.layer, r.count, r.busy.Seconds(), r.self.Seconds(),
			100*float64(r.self)/(float64(traced.wall)*clients))
	}
	fmt.Fprintf(&b, "tracing overhead (traced vs untraced pass):\n")
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "  %-18s %14.4f -> %14.4f %s\n", m.name, plain.e2e[m.name], traced.e2e[m.name], m.unit)
	}
	fmt.Fprint(os.Stderr, b.String())
	return os.WriteFile(filepath.Join(dir, "summary.txt"), []byte(b.String()), 0o644)
}
