// Command perfbench is the repository's end-to-end benchmark. It drives
// the public repro API through three seeded workloads, checks every answer
// it gets back, and prints one JSON result line:
//
//	point-read        per-uid prepared point queries on the unsharded engine
//	ingest            closed-loop 200-op batches into a durable 400k-row handle
//	read-under-write  the Fig. 1 plan read while an open-loop writer churns
//
// BENCHMARK.json at the repository root lists the workloads (with why each
// was chosen) and the metrics. With -trace 0 the run reports the
// end-to-end metrics; with -trace 1 it reports per-layer metrics, timed
// from this package around calls into each layer's public functions (see
// trace.go), together with how far they sit from the same process's
// untraced end-to-end numbers.
//
// Run it through run.sh from the repository root, which builds this module
// against the checkout's sources:
//
//	bash perfbench/run.sh --workload point-read --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// moves says, for each metric BENCHMARK.json declares, what it measures
// (end-to-end) or which end-to-end metric, and on which workload, it should
// move (per-layer). Names, units and directions come from BENCHMARK.json,
// which has no room for this.
var moves = map[string]string{
	"setup_s":              "NewSystem + Open + Prepare pool + warm-up, median of 3 to 9 builds",
	"prepare_ms":           "System.Prepare latency of a distinct query, interquartile mean",
	"read_p50_us":          "per-read latency, median",
	"read_p90_us":          "per-read latency, 90th percentile",
	"reads_per_s":          "reads per second of time inside the read call, median over time slices",
	"fetched_per_read":     "mean |Dξ| fetched per read",
	"apply_p50_ms":         "per-batch ApplyDelta latency, median",
	"apply_ops_per_s":      "physical ops applied per second of ApplyDelta time",
	"recover_s":            "reopen of the durable directory until the handle serves",
	"journal_bytes_per_op": "bytes written to the durable directory per applied op",
	"heap_mb":              "live heap after a forced GC at the end of the timed phases",
	"success_rate":         "1 - failed/attempted ops (API errors, wrong answers, fetch-bound violations); any failure also fails the run",

	"plan.querykey_us":            "prepare_ms, setup_s @ point-read",
	"prepare.candidates":          "prepare_ms, setup_s @ point-read",
	"select.overhead_us":          "read_p50_us @ point-read",
	"plan.cost_us":                "read_p50_us @ point-read",
	"plan.exec_us":                "read_p50_us @ read-under-write, point-read",
	"plan.fetch_us":               "read_p50_us, fetched_per_read",
	"plan.fetch_calls":            "read_p50_us, fetched_per_read",
	"plan.useful_ratio":           "fetched_per_read",
	"feedback.absorb_us":          "read_p50_us @ point-read",
	"read.allocs":                 "read_p90_us, heap_mb",
	"read.bytes":                  "read_p90_us, heap_mb",
	"instance.apply_ms":           "apply_p50_ms @ ingest",
	"vindex.apply_ms":             "apply_p50_ms @ ingest",
	"vindex.apply_bytes":          "apply_p50_ms @ ingest",
	"eval.maintain_ms":            "apply_p50_ms @ ingest; read_p90_us @ read-under-write",
	"eval.maintain_bytes":         "apply_p50_ms @ ingest; read_p90_us @ read-under-write",
	"eval.views_changed":          "apply_p50_ms @ ingest; read_p90_us @ read-under-write",
	"wal.append_ms":               "apply_p50_ms @ ingest",
	"publish.us":                  "apply_p50_ms",
	"stats.collect_ms":            "apply_ops_per_s @ ingest",
	"stats.refreshes":             "apply_ops_per_s @ ingest",
	"wal.checkpoint_ms":           "apply_ops_per_s, journal_bytes_per_op @ ingest",
	"wal.checkpoint_bytes":        "apply_ops_per_s, journal_bytes_per_op @ ingest",
	"compact.ms":                  "apply_ops_per_s @ read-under-write, heap_mb",
	"apply.allocs":                "apply_p50_ms @ ingest; read_p90_us @ read-under-write",
	"apply.bytes":                 "apply_p50_ms @ ingest; read_p90_us @ read-under-write",
	"gc.cpu_frac":                 "apply_p50_ms @ ingest; read_p90_us @ read-under-write",
	"shard.apply_ms":              "apply_p50_ms @ read-under-write",
	"shard.max_exclusive_ms":      "apply_p50_ms @ read-under-write",
	"snapshot.pin_us":             "read_p90_us @ read-under-write",
	"lifecycle.reclaimed_epochs":  "heap_mb @ read-under-write",
	"lifecycle.compaction_passes": "heap_mb @ read-under-write",
	"open.vindex_ms":              "setup_s",
	"open.views_ms":               "setup_s",
	"open.stats_ms":               "setup_s",
	"wal.open_ms":                 "recover_s @ ingest",
	"recover.replayed_epochs":     "recover_s @ ingest",
	"trace.read_e2e_p50_us":       "read_p50_us measured untraced in the traced run",
	"trace.read_gap_us":           "select + exec + fetch + feedback minus trace.read_e2e_p50_us (tracing overhead)",
	"trace.apply_e2e_p50_ms":      "apply_p50_ms measured untraced in the traced run",
	"trace.apply_gap_ms":          "sum of the per-batch write-path phases minus trace.apply_e2e_p50_ms (tracing overhead)",
}

// A run builds its whole serving state at least minSetups times and until
// setupBudget has passed (at most maxSetups); setup_s is the median build,
// so one slow build does not move it, and a workload whose build is short
// takes more of them.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 6 * time.Second
)

type runner struct {
	seed  int64
	dur   time.Duration
	trace bool
	dir   string // scratch directory for durable state, removed at exit

	chk    checker
	e2e    map[string]float64
	layers map[string]float64
	// unreached lists per-layer metrics this workload's engine does not
	// expose from outside (reported as 0).
	unreached []string
}

var workloads = map[string]struct {
	run func(*runner) error
	// flush is the durable directory's flush policy, for the fingerprint.
	flush string
}{
	"point-read":       {pointRead, "inline fsync per batch, checkpoint every 256 batches"},
	"ingest":           {ingest, "inline fsync per batch, checkpoint every 256 batches"},
	"read-under-write": {readUnderWrite, fmt.Sprintf("group commit: fsync every %v, checkpoint every 256 batches", ruwGroupCommit)},
}

func main() {
	name := flag.String("workload", "", "workload to run: point-read, ingest or read-under-write")
	seed := flag.Int64("seed", 1, "seed for the query pool and the write stream (the base data is fixed)")
	seconds := flag.Float64("seconds", 10, "length of the main timed phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	dir := flag.String("dir", ".bench_build/perfbench-run", "scratch directory for durable state (removed at exit)")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, trace int, dir string) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want point-read, ingest or read-under-write)", name)
	}
	if seconds <= 0 || trace < 0 || trace > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &runner{
		seed: seed, dur: time.Duration(seconds * float64(time.Second)), trace: trace == 1, dir: dir,
		e2e: map[string]float64{}, layers: map[string]float64{},
	}
	fp, err := fingerprint(dir, wl.flush)
	if err != nil {
		return err
	}
	fmt.Printf("# machine %s\n", fp)
	if err := wl.run(r); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if err := r.report(spec); err != nil {
		return err
	}
	if failed := r.chk.failed.Load(); failed > 0 {
		return fmt.Errorf("%s: %d of %d checked operations failed", name, failed, r.chk.attempted.Load())
	}
	return nil
}

// report prints a readable table and, as the last line, the JSON result.
func (r *runner) report(sp spec) error {
	attempted, failed := r.chk.attempted.Load(), r.chk.failed.Load()
	r.e2e["success_rate"] = 1 - float64(failed)/float64(max(attempted, 1))
	specs, vals := sp.EndToEnd, r.e2e
	if r.trace {
		specs, vals = sp.PerLayer, r.layers
		for _, n := range r.unreached {
			vals[n] = 0
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(specs))
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = value{v, s.Unit}
		fmt.Printf("# %-28s %14.4f %-7s %s\n", s.Name, v, s.Unit, moves[s.Name])
	}
	if len(r.unreached) > 0 {
		fmt.Printf("# not reachable from outside on this workload (reported as 0): %s\n", strings.Join(r.unreached, ", "))
	}
	for _, n := range r.chk.notes {
		fmt.Printf("# FAILED: %s\n", n)
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// spec is the metric list of BENCHMARK.json.
type spec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// loadSpec reads the metric list and fails when it and moves disagree, so
// every declared metric has a description and none is described but gone.
func loadSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err != nil {
		return sp, fmt.Errorf("read metric list: %w", err)
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("parse %s: %w", path, err)
	}
	for _, m := range append(slices.Clone(sp.EndToEnd), sp.PerLayer...) {
		if _, ok := moves[m.Name]; !ok {
			return sp, fmt.Errorf("%s declares metric %s, which the benchmark does not measure", path, m.Name)
		}
	}
	if n := len(sp.EndToEnd) + len(sp.PerLayer); n != len(moves) {
		return sp, fmt.Errorf("%s declares %d metrics, the benchmark measures %d", path, n, len(moves))
	}
	return sp, nil
}

// fingerprint records what the numbers depend on besides the code: the
// machine, the runtime and where (and how) the durable state is synced.
func fingerprint(dir, flush string) (string, error) {
	var fs syscall.Statfs_t
	if err := syscall.Statfs(dir, &fs); err != nil {
		return "", fmt.Errorf("statfs %s: %w", dir, err)
	}
	fsNames := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	fsName, ok := fsNames[int64(fs.Type)]
	if !ok {
		fsName = fmt.Sprintf("0x%x", fs.Type)
	}
	b, err := json.Marshal(map[string]any{
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"os_arch":      runtime.GOOS + "/" + runtime.GOARCH,
		"wal_fs":       fsName,
		"flush_policy": flush,
	})
	return string(b), err
}

// sortedKeys returns m's keys in order (stable output for notes).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
