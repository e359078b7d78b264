package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cq"
	"repro/internal/workload"
)

// Workload sizes. Every workload reports every end-to-end metric, so each
// one has a read phase, a write phase and a reopen of its durable
// directory; the main phase is the one its "why" in BENCHMARK.json names,
// the others are short and come after it.
const (
	txnCap = 8 // workload.Sharded NTxn: Q_u fetches at most 8 tuples

	// fixtureSeed generates the base data and the query pool of every
	// workload. --seed picks the write stream over them, so runs with
	// different seeds measure the same D and the same queries; only the
	// churn differs.
	fixtureSeed = 7

	pointUsers = 25_000 // |D| = 5 * users = 125k
	pointPool  = 64
	// The point-read write phase: many small batches, so the apply
	// percentiles have enough samples without a long phase.
	pointBatches  = 1000
	pointBatchOps = 20

	ingestUsers = 80_000 // |D| = 400k, growing as the run applies
	// The ingest pool is fixed like every pool, so its mean fetch varies
	// between seeds only with the churn its uids saw.
	ingestPool     = 32
	ingestBatchOps = 200
	// ingestBatchesPerSecond fixes the op count from --seconds: the run
	// is a fixed amount of work, not a fixed time, because the batches
	// grow |D| and a faster engine must not be charged for a larger D.
	ingestBatchesPerSecond = 50
	ingestReadShare        = 3 // the read phase lasts seconds/ingestReadShare

	moviesN0    = 50 // Fig. 1 fetches at most 2*N0 = 100 tuples
	moviesSize  = 8000
	moviesM     = 4 // bounds Prepare's search for the rating pool; Fig. 1 runs ad hoc
	ruwPool     = 32
	ruwShards   = 2
	ruwRetain   = 8
	ruwBatchOps = 100
	ruwRate     = 50 // open-loop writer batches per second
	ruwPinEvery = 16 // the writer pins and closes a snapshot every 16th batch
	// ruwThink is the reader's pause between reads. With it the reader
	// takes about half a CPU, so on two CPUs the writer, the shard workers
	// and the collector find one free instead of queueing behind a reader
	// that never yields; without it the run-to-run spread of this
	// workload's write metrics exceeded their bounds.
	ruwThink = 250 * time.Microsecond
	// ruwGroupCommit is a once-a-second fsync (as in Redis' appendfsync
	// everysec). This workload's batch latency is then the engine's, not
	// the disk's: fsync latency on a shared disk swings between runs by
	// more than the metric bounds. Ingest measures the inline fsync.
	ruwGroupCommit = time.Second
)

// txnFixture is workload.Sharded at a given size with a fixed pool of
// per-uid point queries Q_u and a seeded write stream.
type txnFixture struct {
	w       *workload.Sharded
	users   int
	seed    int64
	queries []*repro.UCQ
}

func newTxnFixture(seed int64, users, pool int) *txnFixture {
	w := workload.NewSharded(txnCap)
	rng := rand.New(rand.NewSource(fixtureSeed + 2))
	f := &txnFixture{w: w, users: users, seed: seed}
	for _, i := range rng.Perm(users)[:pool] {
		f.queries = append(f.queries, cq.NewUCQ(w.Query(w.UID(i))))
	}
	return f
}

func (f *txnFixture) newDB() *repro.Database   { return f.w.Generate(f.users, 4, fixtureSeed) }
func (f *txnFixture) emptyDB() *repro.Database { return repro.NewDatabase(f.w.Schema) }

func (f *txnFixture) newSys() (*repro.System, error) {
	return repro.NewSystem(f.w.Schema, f.w.Access, f.w.Views(), f.w.M)
}

// batches draws the seeded write stream: n ShardedChurn batches of ops.
func (f *txnFixture) batches(n, ops int) []batch {
	ch := f.w.NewChurn(f.newDB(), f.seed+1)
	out := make([]batch, n)
	for i := range out {
		out[i].ins, out[i].del = ch.Batch(ops)
	}
	return out
}

func (f *txnFixture) spec() setupSpec {
	return setupSpec{newDB: f.newDB, newSys: f.newSys, queries: f.queries}
}

// mirrorAfter applies the batches to db, the benchmark's reference copy.
func mirrorAfter(db *repro.Database, batches []batch) (*repro.Database, error) {
	for i, b := range batches {
		if _, err := db.ApplyDelta(b.ins, b.del); err != nil {
			return nil, fmt.Errorf("mirror batch %d: %w", i, err)
		}
	}
	return db, nil
}

// checkState compares the pool's answers with the mirror and, at the
// end, the views too. It returns the mirror's answers to the pool's
// queries followed by those to extra queries.
func (r *runner) checkState(what string, s *served, mirror *repro.Database, extra ...*repro.UCQ) ([][][]string, error) {
	qs := make([]*repro.UCQ, 0, len(s.pool)+len(extra))
	for _, p := range s.pool {
		qs = append(qs, p.q)
	}
	want, views, err := expected(s.sys, mirror, append(qs, extra...))
	if err != nil {
		return nil, err
	}
	if err := r.checkPool(what, s, want); err != nil {
		return nil, err
	}
	if what == "final" {
		r.chk.views(what, s.h.Views(), views)
	}
	return want, nil
}

// checkFinal applies the write stream to a fresh mirror and checks the
// handle against it (pool answers and views). It returns the pool's
// expected answers; the mirror is garbage once it returns.
func (r *runner) checkFinal(s *served, newDB func() *repro.Database, batches []batch) ([]answer, error) {
	mirror, err := mirrorAfter(newDB(), batches)
	if err != nil {
		return nil, err
	}
	want, err := r.checkState("final", s, mirror)
	if err != nil {
		return nil, err
	}
	return answersOf(want), nil
}

// pointRead: one closed-loop reader serves the 64-query pool for
// --seconds, with every write-path layer idle; every read's answer is
// compared with the full-scan answer.
func pointRead(r *runner) error {
	f := newTxnFixture(r.seed, pointUsers, pointPool)
	batches := f.batches(pointBatches, pointBatchOps)
	s, err := r.setup(f.spec())
	if err != nil {
		return err
	}
	start, err := r.checkState("start", s, f.newDB())
	if err != nil {
		return err
	}
	want := answersOf(start)
	runtime.GC()
	rr := r.readLoop(poolReads(s, want), 0, func(start time.Time) bool { return time.Since(start) >= r.dur })
	r.recordReads(rr)
	if err := r.traceHandle(s, poolReads(s, want)); err != nil {
		return err
	}
	ar, err := r.applyClosed(s, batches)
	if err != nil {
		return err
	}
	r.recordApply(ar)
	if _, err := r.checkFinal(s, f.newDB, batches); err != nil {
		return err
	}
	batches = nil // regenerated below for the trace; not counted in heap_mb
	r.finishTimed(s)
	if err := r.recoverAndCheck(s, f.emptyDB); err != nil {
		return err
	}
	if !r.trace {
		return nil
	}
	return r.traceLive(f, s, f.batches(pointBatches, pointBatchOps), true)
}

// ingest: one closed-loop writer sends a fixed number of 200-op batches
// into the durable 400k-row handle, with no reads; a short read phase
// follows, with every read's answer compared with the mirror's.
func ingest(r *runner) error {
	f := newTxnFixture(r.seed, ingestUsers, ingestPool)
	n := max(1, int(r.dur.Seconds()*ingestBatchesPerSecond))
	batches := f.batches(n, ingestBatchOps)
	s, err := r.setup(f.spec())
	if err != nil {
		return err
	}
	ar, err := r.applyClosed(s, batches)
	if err != nil {
		return err
	}
	r.recordApply(ar)
	want, err := r.checkFinal(s, f.newDB, batches)
	if err != nil {
		return err
	}
	batches = nil // regenerated below for the trace; not counted in heap_mb
	readFor := r.dur / ingestReadShare
	runtime.GC()
	rr := r.readLoop(poolReads(s, want), 0, func(start time.Time) bool { return time.Since(start) >= readFor })
	r.recordReads(rr)
	if err := r.traceHandle(s, poolReads(s, want)); err != nil {
		return err
	}
	r.finishTimed(s)
	if err := r.recoverAndCheck(s, f.emptyDB); err != nil {
		return err
	}
	if !r.trace {
		return nil
	}
	return r.traceLive(f, s, f.batches(n, ingestBatchOps), false)
}

// ruwQ0 is the paper's Q0, the query the Fig. 1 plan answers.
var ruwQ0 = cq.NewUCQ(workload.NewMovies(moviesN0).Q0)

// moviesFixture is Example 1.1's movie domain at 8000 persons and movies,
// with a fixed pool of per-movie rating point queries and a seeded write
// stream.
type moviesFixture struct {
	m       *workload.Movies
	seed    int64
	queries []*repro.UCQ
}

func newMoviesFixture(seed int64) *moviesFixture {
	f := &moviesFixture{m: workload.NewMovies(moviesN0), seed: seed}
	rng := rand.New(rand.NewSource(fixtureSeed + 2))
	for _, i := range rng.Perm(moviesSize)[:ruwPool] {
		q := cq.NewCQ([]cq.Term{cq.Var("r")}, []cq.Atom{cq.NewAtom("rating", cq.Cst(fmt.Sprintf("m%d", i)), cq.Var("r"))})
		f.queries = append(f.queries, cq.NewUCQ(q))
	}
	return f
}

func (f *moviesFixture) newDB() *repro.Database {
	return f.m.Generate(workload.MoviesParams{
		Persons: moviesSize, Movies: moviesSize, LikesPerPerson: 5, NASAShare: 10, Seed: fixtureSeed,
	})
}

func (f *moviesFixture) emptyDB() *repro.Database { return repro.NewDatabase(f.m.Schema) }

func (f *moviesFixture) newSys() (*repro.System, error) {
	return repro.NewSystem(f.m.Schema, f.m.Access, f.m.Views(), moviesM)
}

// batches draws n SwapChurn batches: rows swap in and out of a closed
// universe, so |D| stays steady however long the writer runs.
func (f *moviesFixture) batches(n, ops int) []batch {
	ch := workload.NewSwapChurn(f.m, f.newDB(), workload.SwapChurnParams{Seed: f.seed + 1})
	out := make([]batch, n)
	for i := range out {
		out[i].ins, out[i].del = ch.Batch(ops)
	}
	return out
}

// readUnderWrite: an open-loop writer at a fixed rate and one closed-loop
// reader of the Fig. 1 plan share the sharded engine for --seconds. The
// answer changes under the writer, so the reads are checked against Q0
// before the writer starts and after it stops, and each timed read against
// its fetch bound.
func readUnderWrite(r *runner) error {
	f := newMoviesFixture(r.seed)
	fig1 := f.m.Fig1Plan()
	n := max(1, int(r.dur.Seconds()*ruwRate))
	batches := f.batches(n, ruwBatchOps)
	s, err := r.setup(setupSpec{
		newDB: f.newDB, newSys: f.newSys, queries: f.queries,
		opts: []repro.OpenOption{repro.WithShards(ruwShards), repro.WithRetainEpochs(ruwRetain), repro.WithGroupCommit(ruwGroupCommit)},
		warm: func(h repro.Handle) error {
			_, _, err := h.Execute(fig1)
			return err
		},
	})
	if err != nil {
		return err
	}
	ok, b, why := s.sys.Conforms(fig1)
	if !ok {
		return fmt.Errorf("Fig. 1 plan does not conform: %s", why)
	}
	bound := int(b)
	read := func(int) readOut {
		rows, fetched, err := s.h.Execute(fig1)
		return readOut{rows: rows, fetched: fetched, err: err, bound: bound}
	}
	// The Fig. 1 plan answers Q0, so its answer is checked against Q0
	// evaluated by full scans over the mirror.
	checkFig1 := func(what string, mirror *repro.Database) error {
		want, err := r.checkState(what, s, mirror, ruwQ0)
		if err != nil {
			return err
		}
		o := read(0)
		r.chk.read(what+" Fig. 1", o.err, o.fetched, bound)
		r.chk.rows(what+" Fig. 1 vs Q0", o.rows, want[len(s.pool)])
		return nil
	}
	if err := checkFig1("start", f.newDB()); err != nil {
		return err
	}
	ar, rr, err := r.readWhileWriting(s, batches, read)
	if err != nil {
		return err
	}
	r.recordApply(ar)
	r.recordReads(rr)
	mirror, err := mirrorAfter(f.newDB(), batches)
	if err != nil {
		return err
	}
	if err := checkFig1("final", mirror); err != nil {
		return err
	}
	batches = nil // regenerated below for the trace; not counted in heap_mb
	if err := r.traceHandle(s, read); err != nil {
		return err
	}
	r.finishTimed(s)
	if err := r.recoverAndCheck(s, f.emptyDB); err != nil {
		return err
	}
	if !r.trace {
		return nil
	}
	return r.traceSharded(f, s, f.batches(n, ruwBatchOps), fig1)
}

// readWhileWriting runs the open-loop writer on this goroutine and one
// closed-loop reader beside it until the writer has sent every batch.
// Batch latency runs from the batch's due time, so a stalled writer is
// charged for the batches queued behind the stall.
func (r *runner) readWhileWriting(s *served, batches []batch, read readFn) (applyRun, readRun, error) {
	h := s.h
	wt, err := startWrites(s.dir, len(batches))
	if err != nil {
		return applyRun{}, readRun{}, err
	}
	var done atomic.Bool
	var rr readRun
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rr = r.readLoop(read, ruwThink, func(time.Time) bool { return done.Load() })
	}()
	interval := time.Second / ruwRate
	start := time.Now()
	var late time.Duration
	for i, b := range batches {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		} else {
			late = max(late, -d)
		}
		t := time.Now()
		st, err := h.ApplyDelta(b.ins, b.del)
		end := time.Now()
		if err != nil {
			r.chk.fail("apply: %v", err)
			continue
		}
		r.chk.pass()
		wt.applied(st, end.Sub(t), end.Sub(due))
		if (i+1)%ruwPinEvery == 0 {
			snap := h.Snapshot()
			r.chk.state("snapshot close", snap.Close() == nil, "Close failed")
		}
	}
	done.Store(true)
	wg.Wait()
	fmt.Printf("# open-loop writer: %d batches at %d/s, sent at most %.2f ms late\n", len(batches), ruwRate, ms(late))
	ar, err := wt.finish()
	return ar, rr, err
}
