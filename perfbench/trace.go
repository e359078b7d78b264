package main

// The traced run (--trace 1). Spans are recorded here, around calls into
// each layer's public functions, not inside the program:
//
//   - on the real handle after the timed read phase: the selection overhead
//     (PreparedQuery.Execute against Handle.Execute of the same chosen
//     candidate, paired), the allocations of one read, and snapshot pins;
//   - on the benchmark's own layer instances built over a fresh copy of
//     the fixture: the read path runs plan.RunObserved over a timing
//     wrapper of the plan.Source, and the write path repeats the workload's
//     batches in Live.ApplyDelta's call order (db apply, fetch-index apply,
//     view maintenance, journal, statistics, publish, compaction,
//     checkpoint), or through shard.Sharded.ApplyDelta on the sharded
//     workload.
//
// The mirror runs after the real handle is closed, so the two never hold
// the fixture in memory at once. The trace.*_gap metrics compare the sum
// of the traced phases with the same process's untraced end-to-end
// medians; the difference is the tracing overhead.

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/access"
	"repro/internal/eval"
	"repro/internal/instance"
	"repro/internal/intern"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/wal"
)

// Engine settings the mirror repeats. They are the serving engine's
// defaults (handle.go, lifecycle.go, prepare.go).
const (
	statsDrift        = 0.2
	statsMinChurn     = 256
	checkpointEvery   = 256
	extentCompactCap  = 1024
	extentCompactFrac = 0.5
	vindexCompactEach = 512
	feedbackAlpha     = 0.3

	tracePairs = 2000 // paired reads for select.overhead_us and read allocations
	tracePins  = 2000 // Snapshot + Close pairs for snapshot.pin_us
	traceKeys  = 200  // plan.QueryKey calls per pooled query
)

// spans collects per-call samples by metric name.
type spans map[string][]float64

func (s spans) add(name string, v float64) { s[name] = append(s[name], v) }

func (s spans) med(name string) float64 { return median(s[name]) }

func (s spans) mean(name string) float64 {
	xs := s[name]
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// timedSource wraps a plan.Source and times every fetch. Plan subtrees
// may fetch concurrently, so the totals are atomic.
type timedSource struct {
	src            plan.Source
	ns, calls, got atomic.Int64
}

func (t *timedSource) Dict() *intern.Dict { return t.src.Dict() }

func (t *timedSource) FetchIDs(c *access.Constraint, xval []uint32) ([][]uint32, error) {
	t0 := time.Now()
	rows, err := t.src.FetchIDs(c, xval)
	t.ns.Add(int64(time.Since(t0)))
	t.calls.Add(1)
	t.got.Add(int64(len(rows)))
	return rows, err
}

// traceHandle measures on the real handle what only the handle shows.
func (r *runner) traceHandle(s *served, read readFn) error {
	if !r.trace {
		return nil
	}
	var viaPQ, direct []float64
	for i := 0; i < tracePairs; i++ {
		p := s.pool[i%len(s.pool)]
		sel, ok := p.pq.SelectionStats(s.h)
		if !ok {
			return fmt.Errorf("no selection state for %s", p.q)
		}
		chosen := p.pq.Candidates()[sel.Selected]
		prepared := func() {
			t := time.Now()
			_, fetched, err := p.pq.Execute(s.h)
			viaPQ = append(viaPQ, us(time.Since(t)))
			r.chk.read("paired prepared read", err, fetched, p.bound)
		}
		adhoc := func() {
			t := time.Now()
			_, fetched, err := s.h.Execute(chosen)
			direct = append(direct, us(time.Since(t)))
			r.chk.read("paired ad-hoc read", err, fetched, p.bound)
		}
		if i%2 == 0 {
			prepared()
			adhoc()
		} else {
			adhoc()
			prepared()
		}
	}
	r.layers["select.overhead_us"] = median(viaPQ) - median(direct)

	outs := make([]readOut, tracePairs)
	a0 := allocsNow()
	for i := range outs {
		outs[i] = read(i)
	}
	a1 := allocsNow()
	for _, o := range outs {
		r.chk.served("allocation-counted read", o)
	}
	r.layers["read.allocs"] = float64(a1.objects-a0.objects) / tracePairs
	r.layers["read.bytes"] = float64(a1.bytes-a0.bytes) / tracePairs

	pins := make([]float64, 0, tracePins)
	for i := 0; i < tracePins; i++ {
		t := time.Now()
		snap := s.h.Snapshot()
		err := snap.Close()
		pins = append(pins, us(time.Since(t)))
		r.chk.state("snapshot close", err == nil, fmt.Sprint(err))
	}
	r.layers["snapshot.pin_us"] = median(pins)

	var keys []float64
	cands := 0
	for _, p := range s.pool {
		t := time.Now()
		for k := 0; k < traceKeys; k++ {
			plan.QueryKey(p.q)
		}
		keys = append(keys, us(time.Since(t))/traceKeys)
		cands += len(p.pq.Candidates())
	}
	r.layers["plan.querykey_us"] = median(keys)
	r.layers["prepare.candidates"] = float64(cands) / float64(len(s.pool))
	return nil
}

// walOptions repeats how the engine fingerprints a durable directory, so
// the trace can open one with wal.Open directly.
func walOptions(sys *repro.System) wal.Options {
	names := sortedKeys(sys.Views)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = n + "=" + sys.Views[n].String()
	}
	return wal.Options{SchemaFP: wal.Fingerprint(sys.Schema.String()), ViewsFP: wal.Fingerprint(parts...)}
}

// traceWALOpen times wal.Open on the closed durable directory.
func traceWALOpen(r *runner, s *served) error {
	t := time.Now()
	log, _, err := wal.Open(s.dir, walOptions(s.sys))
	if err != nil {
		return fmt.Errorf("trace wal.Open: %w", err)
	}
	r.layers["wal.open_ms"] = ms(time.Since(t))
	return log.Close()
}

// readMirror is the traced read path over a source and its views.
type readMirror struct {
	src   plan.Source
	pv    *plan.PreparedViews
	stats *plan.Stats
}

// traceReads serves reads round-robin over the query frontiers for d,
// timing selection, execution, fetches and feedback separately.
func (r *runner) traceReads(m readMirror, frontiers [][]plan.Node, bounds []int, d time.Duration, sp spans) {
	observed := make([]*plan.ObservedStats, len(frontiers))
	for i := range observed {
		observed[i] = plan.NewObservedStats(feedbackAlpha)
	}
	var rows, fetched int64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		j := i % len(frontiers)
		cands, o := frontiers[j], observed[j]
		t := time.Now()
		best, bestScore := 0, math.Inf(1)
		for k, c := range cands {
			if sc := plan.EstimateObserved(c, m.stats, o).Score(); sc < bestScore {
				best, bestScore = k, sc
			}
		}
		sp.add("plan.cost_us", us(time.Since(t))/float64(len(cands)))
		ts := &timedSource{src: m.src}
		t = time.Now()
		got, ob, err := plan.RunObserved(cands[best], ts, m.pv)
		run := time.Since(t)
		fetch := time.Duration(ts.ns.Load())
		r.chk.read("traced read", err, int(ts.got.Load()), bounds[j])
		if err != nil {
			continue
		}
		sp.add("plan.exec_us", us(run-fetch))
		sp.add("plan.fetch_us", us(fetch))
		sp.add("plan.fetch_calls", float64(ts.calls.Load()))
		rows += int64(len(got))
		fetched += ts.got.Load()
		t = time.Now()
		o.Absorb(ob)
		sp.add("feedback.absorb_us", us(time.Since(t)))
	}
	if fetched > 0 {
		sp.add("plan.useful_ratio", float64(rows)/float64(fetched))
	}
}

// frontiers returns each pooled query's candidate plans and fetch bound.
func frontiers(s *served) ([][]plan.Node, []int) {
	fs := make([][]plan.Node, len(s.pool))
	bs := make([]int, len(s.pool))
	for i, p := range s.pool {
		fs[i], bs[i] = p.pq.Candidates(), p.bound
	}
	return fs, bs
}

// buildStats assembles cost-model statistics from table statistics and
// view extents, as the unsharded engine does when it refreshes them.
func buildStats(sys *repro.System, rs *instance.RelStats, extents map[string][][]uint32) *plan.Stats {
	st := &plan.Stats{
		RelRows:      rs.Rows,
		RelDistinct:  make(map[string]map[string]int, len(rs.Rows)),
		ViewRows:     make(map[string]int),
		ViewDistinct: make(map[string][]int),
	}
	for name, counts := range rs.Distinct {
		rel := sys.Schema.Relation(name)
		if rel == nil {
			continue
		}
		byAttr := make(map[string]int, len(counts))
		for i, a := range rel.Attrs {
			if i < len(counts) {
				byAttr[a] = counts[i]
			}
		}
		st.RelDistinct[name] = byAttr
	}
	for name, rows := range extents {
		st.ViewRows[name] = len(rows)
		st.ViewDistinct[name] = intern.DistinctCols(rows)
	}
	return st
}

// openTimes times the three open-time builds on a fresh fixture.
func (r *runner) openTimes(sys *repro.System, db *repro.Database, sp spans) (*eval.DeltaEngine, *instance.VIndex, *instance.RelStats, error) {
	t := time.Now()
	eng, err := eval.NewDeltaEngine(db, sys.Views)
	if err != nil {
		return nil, nil, nil, err
	}
	r.layers["open.views_ms"] = ms(time.Since(t))
	t = time.Now()
	vix, err := instance.BuildVIndex(db, sys.Access)
	if err != nil {
		return nil, nil, nil, err
	}
	r.layers["open.vindex_ms"] = ms(time.Since(t))
	t = time.Now()
	rs := instance.CollectStats(db)
	d := ms(time.Since(t))
	r.layers["open.stats_ms"] = d
	sp.add("stats.collect_ms", d)
	return eng, vix, rs, nil
}

// liveMirror is the unsharded engine's write path over the benchmark's
// own layer instances.
type liveMirror struct {
	sys       *repro.System
	db        *repro.Database
	eng       *eval.DeltaEngine
	vix       *instance.VIndex
	views     map[string][][]uint32
	stats     *plan.Stats
	log       *wal.Log
	dir       string
	seq       uint64
	statsVer  uint64
	churn     int
	sinceCkpt int
	applied   int
	repub     []string
}

func (m *liveMirror) checkpoint(sp spans) error {
	ck := &wal.Checkpoint{Seq: m.seq - 1, StatsVer: m.statsVer, StatsChurn: m.churn, Stats: m.stats}
	for _, rel := range m.sys.Schema.Relations {
		ck.Tables = append(ck.Tables, wal.TableRows{Rel: rel.Name, Rows: m.db.Table(rel.Name).IDRows()})
	}
	for name, ext := range m.eng.CheckpointExtents() {
		ck.Views = append(ck.Views, wal.ViewExtent{Name: name, Rows: ext.Rows, Counts: ext.Counts})
	}
	m.sinceCkpt = 0
	return timedCheckpoint(m.log, m.dir, m.db.Dict, ck, sp)
}

// timedCheckpoint writes a checkpoint and records its time and size.
func timedCheckpoint(log *wal.Log, dir string, dict *intern.Dict, ck *wal.Checkpoint, sp spans) error {
	w, err := watchDir(dir)
	if err != nil {
		return err
	}
	t := time.Now()
	if err := log.WriteCheckpoint(dict, ck); err != nil {
		return err
	}
	sp.add("wal.checkpoint_ms", ms(time.Since(t)))
	if err := w.scan(); err != nil {
		return err
	}
	sp.add("wal.checkpoint_bytes", float64(w.written()))
	return nil
}

// apply repeats Live.ApplyDelta for one batch, timing each layer.
func (m *liveMirror) apply(b batch, sp spans) error {
	t := time.Now()
	a, err := m.db.ApplyDelta(b.ins, b.del)
	if err != nil {
		return err
	}
	sp.add("instance.apply_ms", ms(time.Since(t)))

	a0 := allocsNow()
	t = time.Now()
	vix, err := m.vix.Apply(a)
	if err != nil {
		return err
	}
	sp.add("vindex.apply_ms", ms(time.Since(t)))
	a1 := allocsNow()
	sp.add("vindex.apply_bytes", float64(a1.bytes-a0.bytes))
	m.vix = vix

	a0 = allocsNow()
	t = time.Now()
	changed, err := m.eng.Apply(a)
	if err != nil {
		return err
	}
	views := make(map[string][][]uint32, len(m.views))
	for name, rows := range m.views {
		views[name] = rows
	}
	for _, name := range append(changed, m.repub...) {
		views[name] = m.eng.PublishExtentIDs(name)
	}
	m.repub = nil
	sp.add("eval.maintain_ms", ms(time.Since(t)))
	a1 = allocsNow()
	sp.add("eval.maintain_bytes", float64(a1.bytes-a0.bytes))
	m.views = views

	ops := len(a.Inserted) + len(a.Deleted)
	needStats := float64(m.churn+ops) >= statsDrift*float64(m.db.Size()) && m.churn+ops >= statsMinChurn
	t = time.Now()
	if err := m.log.Append(m.db.Dict, m.seq, a); err != nil {
		return err
	}
	sp.add("wal.append_ms", ms(time.Since(t)))
	m.seq++
	m.churn += ops
	if needStats {
		t = time.Now()
		rs := instance.CollectStats(m.db)
		sp.add("stats.collect_ms", ms(time.Since(t)))
		m.stats = buildStats(m.sys, rs, m.eng.ExtentsIDs())
		m.statsVer++
		m.churn = 0
	}

	t = time.Now()
	plan.NewPreparedViews(m.db.Dict, m.views)
	sp.add("publish.us", us(time.Since(t)))

	t = time.Now()
	m.repub = m.eng.CompactExtents(extentCompactCap, extentCompactFrac)
	m.applied++
	if m.applied%vindexCompactEach == 0 {
		m.vix, _ = m.vix.Compact()
	}
	sp.add("compact.ms", ms(time.Since(t)))

	m.sinceCkpt++
	if m.sinceCkpt >= checkpointEvery {
		return m.checkpoint(sp)
	}
	return nil
}

// traceLive runs the traced read and write paths of a workload on the
// unsharded engine's layers. readsFirst follows the workload's order.
func (r *runner) traceLive(f *txnFixture, s *served, batches []batch, readsFirst bool) error {
	if !r.trace {
		return nil
	}
	r.unreached = []string{"shard.apply_ms"}
	runtime.GC()
	sp := spans{}
	db := f.newDB()
	eng, vix, rs, err := r.openTimes(s.sys, db, sp)
	if err != nil {
		return err
	}
	m := &liveMirror{sys: s.sys, db: db, eng: eng, vix: vix, views: map[string][][]uint32{}, seq: 1, statsVer: 1}
	for name := range s.sys.Views {
		m.views[name] = eng.PublishExtentIDs(name)
	}
	m.stats = buildStats(s.sys, rs, eng.ExtentsIDs())
	m.dir = filepath.Join(r.dir, "mirror")
	log, _, err := wal.Open(m.dir, walOptions(s.sys))
	if err != nil {
		return err
	}
	defer log.Close()
	m.log = log
	if err := m.checkpoint(sp); err != nil {
		return err
	}
	fs, bs := frontiers(s)
	reads := func() {
		mirror := readMirror{src: m.vix, pv: plan.NewPreparedViews(m.db.Dict, m.views), stats: m.stats}
		r.traceReads(mirror, fs, bs, r.dur/4, sp)
	}
	if readsFirst {
		reads()
	}
	for i, b := range batches {
		if err := m.apply(b, sp); err != nil {
			return fmt.Errorf("mirror batch %d: %w", i, err)
		}
	}
	if !readsFirst {
		reads()
	}
	for _, n := range []string{"instance.apply_ms", "vindex.apply_ms", "eval.maintain_ms", "wal.append_ms",
		"publish.us", "compact.ms", "stats.collect_ms", "wal.checkpoint_ms"} {
		r.layers[n] = sp.med(n)
	}
	for _, n := range []string{"vindex.apply_bytes", "eval.maintain_bytes", "wal.checkpoint_bytes"} {
		r.layers[n] = sp.mean(n)
	}
	applySum := sp.med("instance.apply_ms") + sp.med("vindex.apply_ms") + sp.med("eval.maintain_ms") +
		sp.med("wal.append_ms") + sp.med("publish.us")/1000 + sp.med("compact.ms")
	r.finishTrace(sp, applySum)
	return nil
}

// traceSharded runs the traced read and write paths of the sharded
// workload: reads of the Fig. 1 plan over a shard.Epoch, writes through
// shard.Sharded.ApplyDelta with the journal hooked in.
func (r *runner) traceSharded(f *moviesFixture, s *served, batches []batch, fig1 plan.Node) error {
	if !r.trace {
		return nil
	}
	// Inside shard.Sharded.ApplyDelta these layers run per shard, where
	// no public function boundary is reachable from outside.
	r.unreached = []string{"instance.apply_ms", "vindex.apply_ms", "vindex.apply_bytes",
		"eval.maintain_ms", "eval.maintain_bytes", "publish.us", "stats.collect_ms"}
	runtime.GC()
	sp := spans{}
	if _, _, _, err := r.openTimes(s.sys, f.newDB(), sp); err != nil {
		return err
	}
	sh, err := shard.Open(f.newDB(), s.sys.Schema, s.sys.Access, s.sys.Views, shard.Config{
		Shards: ruwShards, StatsDriftFrac: statsDrift, StatsMinChurn: statsMinChurn,
	})
	if err != nil {
		return err
	}
	defer sh.Close()
	dir := filepath.Join(r.dir, "mirror")
	opts := walOptions(s.sys)
	opts.GroupCommit = ruwGroupCommit
	log, _, err := wal.Open(dir, opts)
	if err != nil {
		return err
	}
	defer log.Close()
	checkpoint := func() error {
		stats, ver, churn := sh.StatsState()
		ck := &wal.Checkpoint{Seq: sh.Seq(), StatsVer: ver, StatsChurn: churn, Stats: stats}
		tables := sh.CheckpointTables()
		for _, rel := range s.sys.Schema.Relations {
			ck.Tables = append(ck.Tables, wal.TableRows{Rel: rel.Name, Rows: tables[rel.Name]})
		}
		return timedCheckpoint(log, dir, sh.Dict(), ck, sp)
	}
	if err := checkpoint(); err != nil {
		return err
	}
	dict := sh.Dict()
	sh.SetJournal(func(seq uint64, a *instance.Applied) error {
		t := time.Now()
		err := log.Append(dict, seq, a)
		sp.add("wal.append_ms", ms(time.Since(t)))
		return err
	})

	e := sh.Current()
	st, _ := e.Stats()
	_, bound, _ := s.sys.Conforms(fig1)
	r.traceReads(readMirror{src: e, pv: e.Prepared(), stats: st}, [][]plan.Node{{fig1}}, []int{int(bound)}, r.dur/4, sp)

	for i, b := range batches {
		t := time.Now()
		if _, err := sh.ApplyDelta(b.ins, b.del); err != nil {
			return fmt.Errorf("mirror batch %d: %w", i, err)
		}
		sp.add("shard.apply_ms", ms(time.Since(t)))
		t = time.Now()
		sh.Compact(extentCompactCap, extentCompactFrac, (i+1)%vindexCompactEach == 0)
		sp.add("compact.ms", ms(time.Since(t)))
		if (i+1)%checkpointEvery == 0 {
			if err := checkpoint(); err != nil {
				return err
			}
		}
	}
	for _, n := range []string{"shard.apply_ms", "wal.append_ms", "compact.ms", "wal.checkpoint_ms"} {
		r.layers[n] = sp.med(n)
	}
	r.layers["wal.checkpoint_bytes"] = sp.mean("wal.checkpoint_bytes")
	r.finishTrace(sp, sp.med("shard.apply_ms")+sp.med("compact.ms"))
	return nil
}

// finishTrace stores the read-path medians and both gaps to the untraced
// end-to-end medians of this process.
func (r *runner) finishTrace(sp spans, applySum float64) {
	for _, n := range []string{"plan.cost_us", "plan.exec_us", "plan.fetch_us", "plan.fetch_calls", "feedback.absorb_us"} {
		r.layers[n] = sp.med(n)
	}
	r.layers["plan.useful_ratio"] = sp.mean("plan.useful_ratio")
	readSum := r.layers["select.overhead_us"] + sp.med("plan.exec_us") + sp.med("plan.fetch_us") + sp.med("feedback.absorb_us")
	r.layers["trace.read_e2e_p50_us"] = r.e2e["read_p50_us"]
	r.layers["trace.read_gap_us"] = readSum - r.e2e["read_p50_us"]
	r.layers["trace.apply_e2e_p50_ms"] = r.e2e["apply_p50_ms"]
	r.layers["trace.apply_gap_ms"] = applySum - r.e2e["apply_p50_ms"]
}
