package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cq"
	"repro/internal/eval"
	"repro/internal/plan"
)

// checker counts attempted and failed operations. An operation fails on an
// API error, a wrong answer or a fetch over the plan's conformance bound.
type checker struct {
	attempted, failed atomic.Int64

	mu    sync.Mutex
	notes []string // the first few failures, for the report
}

func (c *checker) pass() { c.attempted.Add(1) }

func (c *checker) fail(format string, args ...any) {
	c.attempted.Add(1)
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.notes) < 10 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// read checks one served read: no error and at most bound tuples fetched.
func (c *checker) read(what string, err error, fetched, bound int) {
	switch {
	case err != nil:
		c.fail("%s: %v", what, err)
	case fetched > bound:
		c.fail("%s fetched %d tuples, over its bound %d", what, fetched, bound)
	default:
		c.pass()
	}
}

// rows checks an answer against the expected rows (as multisets).
func (c *checker) rows(what string, got, want [][]string) {
	if cq.RowsEqual(got, want) {
		c.pass()
		return
	}
	c.fail("%s: got %d rows, want %d", what, len(got), len(want))
}

// views checks every view extent against the expected extents.
func (c *checker) views(what string, got, want map[string][][]string) {
	if len(got) != len(want) {
		c.fail("%s: %d views, want %d", what, len(got), len(want))
		return
	}
	for _, name := range sortedKeys(want) {
		c.rows(what+" view "+name, got[name], want[name])
	}
}

// answer is an expected answer in the form every timed read is compared
// with: its row count and a digest of its rows that does not depend on
// their order. Equal multisets of rows always have equal digests, so a
// mismatch is always a wrong answer; the digest needs no allocation, so
// the comparison adds no garbage to the timed phase.
type answer struct {
	rows   int
	digest uint64
}

func answerOf(rows [][]string) answer {
	var d uint64
	for _, row := range rows {
		// FNV-1a over the row's values, each followed by a separator
		// byte that no value contains.
		x := uint64(14695981039346656037)
		for _, v := range row {
			for i := 0; i < len(v); i++ {
				x = (x ^ uint64(v[i])) * 1099511628211
			}
			x = (x ^ 0xff) * 1099511628211
		}
		// Mix each row's hash before the (order-free) sum, so rows whose
		// hashes cancel in a plain sum are unlikely.
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		d += x
	}
	return answer{len(rows), d}
}

func answersOf(want [][][]string) []answer {
	out := make([]answer, len(want))
	for i, w := range want {
		out[i] = answerOf(w)
	}
	return out
}

// readOut is one served read and what it must satisfy: at most bound
// tuples fetched and, when want is set, exactly the expected answer.
type readOut struct {
	rows    [][]string
	fetched int
	err     error
	bound   int
	want    *answer
}

// served checks one read as one operation.
func (c *checker) served(what string, o readOut) {
	if o.err == nil && o.want != nil {
		if got := answerOf(o.rows); got != *o.want {
			c.fail("%s: got %d rows, not the expected answer of %d rows", what, got.rows, o.want.rows)
			return
		}
	}
	c.read(what, o.err, o.fetched, o.bound)
}

func (c *checker) state(what string, ok bool, detail string) {
	if ok {
		c.pass()
		return
	}
	c.fail("%s: %s", what, detail)
}

// selfTest proves the checker catches the faults a served read can have:
// a wrong answer, in the start/end comparison and in the per-read one, and
// a fetch over the bound. It runs on real answers whenever the pool is
// checked and aborts the run if any goes unnoticed.
func selfTest(rows [][]string, bound int) error {
	var c checker
	wrong := append([][]string{{"not", "an", "answer"}}, rows...)
	c.rows("self-test wrong answer", wrong, rows)
	if c.failed.Load() != 1 {
		return fmt.Errorf("checker self-test: a wrong answer was not counted as failed")
	}
	want := answerOf(rows)
	c.served("self-test wrong read", readOut{rows: wrong, bound: bound, want: &want})
	if c.failed.Load() != 2 {
		return fmt.Errorf("checker self-test: a wrong answer to a timed read was not counted as failed")
	}
	if len(rows) > 0 && len(rows[0]) > 0 {
		// Same row count, one value changed.
		changed := slices.Clone(rows)
		changed[0] = slices.Clone(changed[0])
		changed[0][0] += "x"
		c.served("self-test changed read", readOut{rows: changed, bound: bound, want: &want})
		if c.failed.Load() != 3 {
			return fmt.Errorf("checker self-test: a changed row in a timed read was not counted as failed")
		}
	}
	c.served("self-test right read", readOut{rows: rows, bound: bound, want: &want})
	c.read("self-test over-bound fetch", nil, bound+1, bound)
	if c.failed.Load() != c.attempted.Load()-1 {
		return fmt.Errorf("checker self-test: a right answer failed, or a fetch over the bound was not counted as failed")
	}
	return nil
}

// expected evaluates queries by full scans over a mirror database, as
// System.EvalDirect does, with the view materialization shared by all of
// them instead of repeated per query. It also returns the views.
func expected(sys *repro.System, db *repro.Database, qs []*repro.UCQ) ([][][]string, map[string][][]string, error) {
	views, err := sys.Materialize(db)
	if err != nil {
		return nil, nil, err
	}
	src := &eval.Source{DB: db, Views: views}
	out := make([][][]string, len(qs))
	for i, q := range qs {
		if out[i], err = eval.UCQOnDB(q, src); err != nil {
			return nil, nil, err
		}
	}
	return out, views, nil
}

func pct(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interquartileMean is the mean of the middle half of xs: it ignores the
// outliers a median ignores, but moves smoothly when samples fall into
// several modes (as Prepare latencies do, depending on where collections
// land), where a median jumps between them.
func interquartileMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	if len(mid) == 0 {
		return median(xs)
	}
	t := 0.0
	for _, x := range mid {
		t += x
	}
	return t / float64(len(mid))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// allocCounter reads the process-wide allocation totals.
type allocCounter struct{ objects, bytes uint64 }

func allocsNow() allocCounter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocCounter{m.Mallocs, m.TotalAlloc}
}

// gcCPU reads the cumulative GC and total CPU seconds of the process.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// dirWatch measures the bytes written into a durable directory. It keeps
// the largest size seen of every file (log segments only grow, checkpoints
// are written once), so files the log prunes later still count. Temporary
// files are skipped: they are renamed into files that are counted.
type dirWatch struct {
	dir  string
	seen map[string]int64
	base int64
}

func watchDir(dir string) (*dirWatch, error) {
	w := &dirWatch{dir: dir, seen: map[string]int64{}}
	if err := w.scan(); err != nil {
		return nil, err
	}
	w.base = w.written()
	return w, nil
}

func (w *dirWatch) scan() error {
	es, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	for _, e := range es {
		if strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue // pruned between ReadDir and Info; its size was seen before
		}
		w.seen[e.Name()] = max(w.seen[e.Name()], info.Size())
	}
	return nil
}

// written returns the bytes written since the watch started.
func (w *dirWatch) written() int64 {
	t := -w.base
	for _, n := range w.seen {
		t += n
	}
	return t
}

// pooled is one prepared query of a workload's pool.
type pooled struct {
	q     *repro.UCQ
	pq    *repro.PreparedQuery
	bound int // fetch bound: the largest System.Conforms bound in its frontier
}

// served is one built serving state.
type served struct {
	sys  *repro.System
	h    repro.Handle
	dir  string
	opts []repro.OpenOption
	pool []pooled
}

// setupSpec describes how a workload builds its serving state. newDB is
// called outside the timed region: data generation is not set-up.
type setupSpec struct {
	newDB   func() *repro.Database
	newSys  func() (*repro.System, error)
	opts    []repro.OpenOption // WithDurability is added per build
	queries []*repro.UCQ
	warm    func(h repro.Handle) error // workload-specific warm-up reads
}

// setup builds the serving state minSetups to maxSetups times and keeps
// the last. setup_s is the median build; prepare_ms the interquartile
// mean Prepare latency over every build's pool (each build has its own
// System, so every Prepare is a cache miss).
func (r *runner) setup(sp setupSpec) (*served, error) {
	var builds, prepares []float64
	var s *served
	start := time.Now()
	for k := 0; k < minSetups || (k < maxSetups && time.Since(start) < setupBudget); k++ {
		if s != nil {
			if err := s.h.Close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(s.dir); err != nil {
				return nil, err
			}
		}
		db := sp.newDB()
		dir := filepath.Join(r.dir, fmt.Sprintf("durable-%d", k))
		opts := append(slices.Clone(sp.opts), repro.WithDurability(dir))
		runtime.GC()
		t0 := time.Now()
		sys, err := sp.newSys()
		if err != nil {
			return nil, err
		}
		h, err := sys.Open(db, opts...)
		if err != nil {
			return nil, err
		}
		pool := make([]pooled, len(sp.queries))
		for i, q := range sp.queries {
			t := time.Now()
			pq, err := sys.Prepare(q, plan.LangCQ)
			if err != nil {
				return nil, fmt.Errorf("prepare %s: %w", q, err)
			}
			prepares = append(prepares, ms(time.Since(t)))
			pool[i] = pooled{q: q, pq: pq}
		}
		for pass := 0; pass < 2; pass++ {
			for _, p := range pool {
				if _, _, err := p.pq.Execute(h); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
		if sp.warm != nil {
			if err := sp.warm(h); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		builds = append(builds, time.Since(t0).Seconds())
		s = &served{sys: sys, h: h, dir: dir, opts: opts, pool: pool}
	}
	for i := range s.pool {
		for _, c := range s.pool[i].pq.Candidates() {
			ok, bound, why := s.sys.Conforms(c)
			if !ok {
				return nil, fmt.Errorf("candidate of %s does not conform: %s", s.pool[i].q, why)
			}
			s.pool[i].bound = max(s.pool[i].bound, int(bound))
		}
	}
	r.e2e["setup_s"] = median(builds)
	r.e2e["prepare_ms"] = interquartileMean(prepares)
	return s, nil
}

// checkPool runs every pooled query once and compares with want. The
// first query's answer also feeds the checker's self-test.
func (r *runner) checkPool(what string, s *served, want [][][]string) error {
	for i, p := range s.pool {
		rows, fetched, err := p.pq.Execute(s.h)
		r.chk.read(what, err, fetched, p.bound)
		r.chk.rows(fmt.Sprintf("%s %s", what, p.q), rows, want[i])
		if i == 0 {
			if err := selfTest(want[i], p.bound); err != nil {
				return err
			}
		}
	}
	return nil
}

// readFn serves read number i.
type readFn func(i int) readOut

// poolReads serves the pool round-robin through PreparedQuery.Execute.
// want, when not nil, holds the pool's expected answers, in pool order.
func poolReads(s *served, want []answer) readFn {
	return func(i int) readOut {
		k := i % len(s.pool)
		p := s.pool[k]
		rows, fetched, err := p.pq.Execute(s.h)
		o := readOut{rows: rows, fetched: fetched, err: err, bound: p.bound}
		if want != nil {
			o.want = &want[k]
		}
		return o
	}
}

type readRun struct {
	lat     []time.Duration // per read
	at      []time.Duration // when each read completed, from the phase start
	fetched int64
	wall    time.Duration
}

// A read phase is cut into equal time slices, at most maxReadSlices and
// none shorter than minReadSlice (so each spans several GC cycles). The
// read metrics are medians over the slices, so a burst of interference
// from outside the process that lasts less than half the phase does not
// move them.
const (
	maxReadSlices = 10
	minReadSlice  = time.Second
)

// writeSlices cuts a write phase into equal runs of batches the same way.
const writeSlices = 10

// readLoop is one closed-loop reader: it serves a read, checks it outside
// the timed span, waits think, and repeats until stop reports true
// (checked after every read).
func (r *runner) readLoop(read readFn, think time.Duration, stop func(start time.Time) bool) readRun {
	var rr readRun
	rr.lat = make([]time.Duration, 0, 1<<20)
	rr.at = make([]time.Duration, 0, 1<<20)
	start := time.Now()
	for i := 0; ; i++ {
		t := time.Now()
		o := read(i)
		end := time.Now()
		rr.lat = append(rr.lat, end.Sub(t))
		rr.at = append(rr.at, end.Sub(start))
		r.chk.served("read", o)
		rr.fetched += int64(o.fetched)
		if stop(start) {
			break
		}
		if think > 0 {
			time.Sleep(think)
		}
	}
	rr.wall = time.Since(start)
	return rr
}

// recordReads stores the end-to-end read metrics: per time slice the
// latency percentiles and the service rate (reads per second spent inside
// the read call, so neither the checks nor a reader's pauses count), then
// the median over the slices.
func (r *runner) recordReads(rr readRun) {
	n := len(rr.lat)
	parts := max(1, min(maxReadSlices, int(rr.wall/minReadSlice)))
	w := rr.wall / time.Duration(parts)
	var p50s, p90s, p99s, rates []float64
	lo := 0
	for k := 1; k <= parts && lo < n; k++ {
		hi := n
		if k < parts {
			hi, _ = slices.BinarySearch(rr.at, time.Duration(k)*w)
		}
		seg := slices.Clone(rr.lat[lo:hi])
		var busy time.Duration
		for _, d := range seg {
			busy += d
		}
		slices.Sort(seg)
		p50s = append(p50s, us(pct(seg, 0.50)))
		p90s = append(p90s, us(pct(seg, 0.90)))
		p99s = append(p99s, us(pct(seg, 0.99)))
		rates = append(rates, float64(hi-lo)/busy.Seconds())
		lo = hi
	}
	r.e2e["read_p50_us"] = median(p50s)
	r.e2e["read_p90_us"] = median(p90s)
	r.e2e["reads_per_s"] = median(rates)
	r.e2e["fetched_per_read"] = float64(rr.fetched) / float64(n)
	fmt.Printf("# reads: %d samples over %.2f s in %d slices; p99 %.1f us (median over slices, not gated)\n",
		n, rr.wall.Seconds(), len(rates), median(p99s))
}

// batch is one delta of the write stream.
type batch struct{ ins, del []repro.Op }

type applyRun struct {
	lat       []time.Duration // per batch, from its due time on an open loop
	busy      []time.Duration // per batch, time inside ApplyDelta
	ops       []int           // per batch, physical ops applied
	written   int64           // bytes written to the durable directory
	alloc     allocCounter    // process-wide allocations over the phase
	gcFrac    float64         // GC share of process CPU over the phase
	refreshes int
	changed   int
	excl      []float64 // DeltaStats.MaxExclusive, ms
}

// writeTracker accumulates one write phase's measurements.
type writeTracker struct {
	ar       applyRun
	dir      *dirWatch
	scanErr  error
	a0       allocCounter
	gc0, cp0 float64
}

func startWrites(dir string, n int) (*writeTracker, error) {
	runtime.GC()
	w, err := watchDir(dir)
	if err != nil {
		return nil, err
	}
	t := &writeTracker{dir: w, a0: allocsNow()}
	t.ar.lat = make([]time.Duration, 0, n)
	t.gc0, t.cp0 = gcCPU()
	return t, nil
}

func (t *writeTracker) applied(st repro.DeltaStats, busy, lat time.Duration) {
	t.ar.lat = append(t.ar.lat, lat)
	t.ar.busy = append(t.ar.busy, busy)
	t.ar.ops = append(t.ar.ops, st.Inserted+st.Deleted)
	t.ar.changed += st.ViewsChanged
	t.ar.excl = append(t.ar.excl, ms(st.MaxExclusive))
	if st.StatsRefreshed {
		t.ar.refreshes++
	}
	if err := t.dir.scan(); err != nil && t.scanErr == nil {
		t.scanErr = err
	}
}

func (t *writeTracker) finish() (applyRun, error) {
	if t.scanErr != nil {
		return applyRun{}, t.scanErr
	}
	a1 := allocsNow()
	gc1, cp1 := gcCPU()
	t.ar.written = t.dir.written()
	t.ar.alloc = allocCounter{a1.objects - t.a0.objects, a1.bytes - t.a0.bytes}
	if cp1 > t.cp0 {
		t.ar.gcFrac = (gc1 - t.gc0) / (cp1 - t.cp0)
	}
	return t.ar, nil
}

// applyClosed is one closed-loop writer: each batch is sent when the
// previous one returned.
func (r *runner) applyClosed(s *served, batches []batch) (applyRun, error) {
	h := s.h
	wt, err := startWrites(s.dir, len(batches))
	if err != nil {
		return applyRun{}, err
	}
	for _, b := range batches {
		t := time.Now()
		st, err := h.ApplyDelta(b.ins, b.del)
		d := time.Since(t)
		if err != nil {
			r.chk.fail("apply: %v", err)
			continue
		}
		r.chk.pass()
		wt.applied(st, d, d)
	}
	return wt.finish()
}

// recordApply stores the end-to-end write metrics and the per-layer
// figures the real handle reports about its own batches.
func (r *runner) recordApply(ar applyRun) {
	n := len(ar.lat)
	var p50s, rates []float64
	var ops int
	var busy time.Duration
	for k := 0; k < writeSlices; k++ {
		lo, hi := k*n/writeSlices, (k+1)*n/writeSlices
		if lo == hi {
			continue
		}
		seg := slices.Clone(ar.lat[lo:hi])
		slices.Sort(seg)
		p50s = append(p50s, ms(pct(seg, 0.50)))
		var o int
		var b time.Duration
		for i := lo; i < hi; i++ {
			o += ar.ops[i]
			b += ar.busy[i]
		}
		rates = append(rates, float64(o)/b.Seconds())
		ops += o
		busy += b
	}
	r.e2e["apply_p50_ms"] = median(p50s)
	r.e2e["apply_ops_per_s"] = median(rates)
	r.e2e["journal_bytes_per_op"] = float64(ar.written) / float64(ops)
	r.layers["apply.allocs"] = float64(ar.alloc.objects) / float64(n)
	r.layers["apply.bytes"] = float64(ar.alloc.bytes) / float64(n)
	r.layers["gc.cpu_frac"] = ar.gcFrac
	r.layers["stats.refreshes"] = float64(ar.refreshes)
	r.layers["eval.views_changed"] = float64(ar.changed) / float64(n)
	r.layers["shard.max_exclusive_ms"] = median(ar.excl)
	all := slices.Clone(ar.lat)
	slices.Sort(all)
	fmt.Printf("# batches: %d samples, %d physical ops, %.2f s in ApplyDelta (%.0f ops/s overall); p90 %.2f ms, p99 %.2f ms (not gated)\n",
		n, ops, busy.Seconds(), float64(ops)/busy.Seconds(), ms(pct(all, 0.90)), ms(pct(all, 0.99)))
}

// finishTimed records what the timed phases leave behind: the live heap
// and the handle's lifecycle counters. Callers drop their write stream and
// mirror first, so the live heap is the serving state's.
func (r *runner) finishTimed(s *served) {
	r.e2e["heap_mb"] = liveHeapMB()
	lc := s.h.Lifecycle()
	r.layers["lifecycle.reclaimed_epochs"] = float64(lc.ReclaimedEpochs)
	r.layers["lifecycle.compaction_passes"] = float64(lc.CompactionPasses)
}

// The durable directory is reopened at least minReopens times and until
// reopenBudget has passed (at most maxReopens); recover_s is the median.
const (
	minReopens   = 3
	maxReopens   = 9
	reopenBudget = 2 * time.Second
)

// recoverAndCheck closes the handle, reopens its durable directory and
// checks that every reopened handle serves the same state. recover_s is
// the reopen until the handle serves.
func (r *runner) recoverAndCheck(s *served, emptyDB func() *repro.Database) error {
	wantSize, wantViews := s.h.Size(), s.h.Views()
	if err := s.h.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if r.trace {
		if err := traceWALOpen(r, s); err != nil {
			return err
		}
	}
	var opens []float64
	start := time.Now()
	for k := 0; k < minReopens || (k < maxReopens && time.Since(start) < reopenBudget); k++ {
		db := emptyDB()
		runtime.GC()
		t0 := time.Now()
		h, err := s.sys.Open(db, s.opts...)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		opens = append(opens, time.Since(t0).Seconds())
		r.chk.state("reopened size", h.Size() == wantSize, fmt.Sprintf("%d, want %d", h.Size(), wantSize))
		r.chk.views("reopened", h.Views(), wantViews)
		if rec, ok := h.(interface{ Recovery() repro.RecoveryInfo }); ok {
			r.layers["recover.replayed_epochs"] = float64(rec.Recovery().ReplayedEpochs)
		}
		if err := h.Close(); err != nil {
			return fmt.Errorf("close reopened: %w", err)
		}
	}
	r.e2e["recover_s"] = median(opens)
	return nil
}
