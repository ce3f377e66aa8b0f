package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/tspace"
)

// shard is one in-process fabric node: its own machine, VM and server on
// a loopback listener.
type shard struct {
	m   *core.Machine
	vm  *core.VM
	srv *remote.Server
	ln  net.Listener
}

func startShard(name string, procs, vps int, routeCheck func(string, tspace.Tuple, tspace.Template) error, ln net.Listener) (*shard, error) {
	m := core.NewMachine(core.MachineConfig{Processors: procs})
	v, err := m.NewVM(core.VMConfig{Name: name, VPs: vps})
	if err != nil {
		m.Shutdown()
		return nil, err
	}
	srv := remote.NewServer(v, remote.ServerConfig{RouteCheck: routeCheck})
	go srv.Serve(ln) //nolint:errcheck // returns once Shutdown closes the listener
	return &shard{m: m, vm: v, srv: srv, ln: ln}, nil
}

// run executes body on a thread of the shard's VM and waits for it.
func (s *shard) run(body func(ctx *core.Context) error) error {
	_, err := s.vm.Run(func(ctx *core.Context) ([]core.Value, error) { return nil, body(ctx) })
	return err
}

func (s *shard) close() {
	s.srv.Shutdown()
	s.m.Shutdown()
}

// ---------------------------------------------------------------------------
// fabric-rpc: two callers drive a cluster.Client over two 1-PP shards.

const (
	rpcShards      = 2
	rpcCallers     = 2
	echoPerShard   = 2
	residentKeys   = 1024 // more than the hash space's 64 bins
	groupsPerCall  = 8
	tryPoolPerSec  = 1000 // TryGet targets preloaded per caller per run second
	rpcOpeningBal  = 1000
	rpcKindEcho    = 0
	rpcKindRd      = 1
	rpcKindTryGet  = 2
	rpcKindTxn     = 3
	rpcKindWildRd  = 4
	echoPoisonID   = int64(-1)
	tryMissKeyBase = int64(-1) << 40
)

var rpcKinds = []string{"echo", "rd", "tryget", "txn", "wildcard"}

// echoStats is one echo thread's turnaround histogram.
type echoStats struct {
	mu sync.Mutex
	h  hist
}

type rpcState struct {
	seq     int64
	tryPool []int64 // keys of this caller's TryGet targets not yet taken
	tryVal  map[int64]int64
	bal     [groupsPerCall][2]int64
}

type rpcWorkload struct {
	cfg    *config
	shards []*shard
	mem    *cluster.Membership
	cl     *cluster.Client
	jobs   *cluster.Space
	kv     *cluster.Space
	try    *cluster.Space
	bank   *cluster.Space
	echoes []*echoStats
	state  [rpcCallers]*rpcState
}

func residentVal(k int64) int64 { return k*7919 + 13 }

func groupKey(caller, g int) string { return fmt.Sprintf("g%d.%d", caller, g) }

func setupRPC(cfg *config) (workload, error) {
	w := &rpcWorkload{cfg: cfg}
	nodes := make([]cluster.Node, rpcShards)
	lns := make([]net.Listener, rpcShards)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(lns)
			return nil, err
		}
		lns[i] = ln
		nodes[i] = cluster.Node{ID: fmt.Sprintf("s%d", i), Addr: ln.Addr().String()}
	}
	mem, err := cluster.NewMembership(nodes)
	if err != nil {
		closeListeners(lns)
		return nil, err
	}
	w.mem = mem
	for i, n := range nodes {
		check, err := cluster.SelfCheck(mem, n.ID, 0)
		var sh *shard
		if err == nil {
			sh, err = startShard(n.ID, 1, 1, check, lns[i])
		}
		if err != nil {
			w.close()
			closeListeners(lns[i:])
			return nil, err
		}
		w.shards = append(w.shards, sh)
		w.startEchoes(sh)
	}
	w.cl = cluster.Open(mem, cluster.Config{Dial: remote.DialConfig{
		DialRetries: 1, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond,
		Timeout: opDeadline,
	}})
	w.jobs = w.cl.Space("jobs").Deadline(opDeadline)
	w.kv = w.cl.Space("kv").Deadline(opDeadline)
	w.try = w.cl.Space("try")
	w.bank = w.cl.Space("bank")
	if err := w.preloadAll(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// startEchoes runs the threads that answer each request tuple on the
// shard that holds it: take (id req x), deposit (id resp 2x+1).
func (w *rpcWorkload) startEchoes(sh *shard) {
	ts := sh.srv.Registry().OpenDefault("jobs")
	tpl := tspace.Template{tspace.F("id"), "req", tspace.F("x")}
	for i := 0; i < echoPerShard; i++ {
		st := &echoStats{}
		w.echoes = append(w.echoes, st)
		sh.vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
			for {
				_, b, err := ts.Get(ctx, tpl)
				if err != nil {
					return nil, err
				}
				id := b["id"].(int64)
				if id == echoPoisonID {
					return nil, nil
				}
				t0 := time.Now()
				if err := ts.Put(ctx, tspace.Tuple{id, "resp", 2*b["x"].(int64) + 1}); err != nil {
					return nil, err
				}
				if w.cfg.tracingNow.Load() {
					st.mu.Lock()
					st.h.add(time.Since(t0).Nanoseconds())
					st.mu.Unlock()
				}
			}
		}, core.WithName("echo"))
	}
}

// preloadAll deposits the resident keys and bank accounts through the
// cluster client, and each caller's TryGet targets straight into the
// owning shard's space.
func (w *rpcWorkload) preloadAll() error {
	for k := int64(1); k <= residentKeys; k++ {
		if err := w.kv.Put(nil, tspace.Tuple{k, "val", residentVal(k)}); err != nil {
			return fmt.Errorf("preload kv: %w", err)
		}
	}
	preload := int(w.cfg.seconds*tryPoolPerSec) + 64
	byShard := make([][]tspace.Tuple, len(w.shards))
	for c := 0; c < rpcCallers; c++ {
		st := &rpcState{tryVal: map[int64]int64{}}
		w.state[c] = st
		for g := 0; g < groupsPerCall; g++ {
			key := groupKey(c, g)
			for a := int64(0); a < 2; a++ {
				if err := w.bank.Put(nil, tspace.Tuple{key, a, int64(rpcOpeningBal)}); err != nil {
					return fmt.Errorf("preload bank: %w", err)
				}
				st.bal[g][a] = rpcOpeningBal
			}
		}
		for i := 0; i < preload; i++ {
			k := int64(c+1)<<32 | int64(i)
			tup := tspace.Tuple{k, "t", k ^ 0x5bd1e995}
			st.tryPool = append(st.tryPool, k)
			st.tryVal[k] = tup[2].(int64)
			byShard[w.owner("try", tup)] = append(byShard[w.owner("try", tup)], tup)
		}
	}
	for i, sh := range w.shards {
		ts := sh.srv.Registry().OpenDefault("try")
		err := sh.run(func(ctx *core.Context) error {
			for _, tup := range byShard[i] {
				if err := ts.Put(ctx, tup); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("preload try: %w", err)
		}
	}
	return nil
}

// owner answers the index of the shard a tuple routes to.
func (w *rpcWorkload) owner(space string, tup tspace.Tuple) int {
	key, _ := tspace.HashKey(space, tup[0], len(tup))
	id := w.mem.Owner(key).ID
	for i, n := range w.mem.Nodes() {
		if n.ID == id {
			return i
		}
	}
	return 0
}

func (w *rpcWorkload) kinds() []string { return rpcKinds }

func (w *rpcWorkload) op(c *caller) (int, error) {
	st := w.state[c.id]
	r := c.rng.IntN(100)
	switch {
	case r < 50:
		c.kindNow.Store(rpcKindEcho)
		return rpcKindEcho, w.echo(c, st)
	case r < 70:
		c.kindNow.Store(rpcKindRd)
		k := 1 + c.rng.Int64N(residentKeys)
		t0 := time.Now()
		_, b, err := w.kv.Rd(nil, tspace.Template{k, "val", tspace.F("v")})
		c.span("rpc.rd", t0)
		if err != nil {
			return rpcKindRd, err
		}
		return rpcKindRd, c.expect("rd", b["v"], residentVal(k))
	case r < 85:
		c.kindNow.Store(rpcKindTryGet)
		return rpcKindTryGet, w.tryGet(c, st)
	case r < 95:
		c.kindNow.Store(rpcKindTxn)
		return rpcKindTxn, w.transfer(c, st)
	default:
		c.kindNow.Store(rpcKindWildRd)
		t0 := time.Now()
		_, b, err := w.kv.Rd(nil, tspace.Template{tspace.F("k"), "val", tspace.F("v")})
		c.span("rpc.wildcard", t0)
		if err != nil {
			return rpcKindWildRd, err
		}
		return rpcKindWildRd, c.expect("wildcard rd", b["v"], residentVal(b["k"].(int64)))
	}
}

// echo is a keyed Put and a blocking Get of the answer an echo thread
// deposits: one round trip through both sides of the fabric.
func (w *rpcWorkload) echo(c *caller, st *rpcState) error {
	st.seq++
	id := int64(c.id+1)<<40 | st.seq
	x := c.rng.Int64N(1 << 30)
	t0 := time.Now()
	if err := w.jobs.Put(nil, tspace.Tuple{id, "req", x}); err != nil {
		return err
	}
	c.span("rpc.put", t0)
	t1 := time.Now()
	_, b, err := w.jobs.Get(nil, tspace.Template{id, "resp", tspace.F("y")})
	c.span("rpc.get", t1)
	if err != nil {
		return err
	}
	return c.expect("echo", b["y"], 2*x+1)
}

// tryGet probes half the time for a preloaded target of this caller (a
// hit) and half the time for a key never deposited (a miss).
func (w *rpcWorkload) tryGet(c *caller, st *rpcState) error {
	if c.rng.IntN(2) == 0 && len(st.tryPool) > 0 {
		k := st.tryPool[len(st.tryPool)-1]
		st.tryPool = st.tryPool[:len(st.tryPool)-1]
		t0 := time.Now()
		_, b, err := w.try.TryGet(nil, tspace.Template{k, "t", tspace.F("v")})
		c.span("rpc.tryget", t0)
		if err != nil {
			return err
		}
		return c.expect("tryget hit", b["v"], st.tryVal[k])
	}
	k := tryMissKeyBase - c.rng.Int64N(1<<30)
	t0 := time.Now()
	_, _, err := w.try.TryGet(nil, tspace.Template{k, "t", tspace.F("v")})
	c.span("rpc.tryget", t0)
	if errors.Is(err, tspace.ErrNoMatch) {
		return nil
	}
	if err != nil {
		return err
	}
	return &wrongAnswer{what: "tryget miss", got: "a tuple", want: "no match"}
}

// transfer moves a seeded amount between the two accounts of one of the
// caller's groups in one single-shard TXNCOMMIT. Each group belongs to one
// caller, so the caller knows both balances and a conflict is a failure.
func (w *rpcWorkload) transfer(c *caller, st *rpcState) error {
	g := c.rng.IntN(groupsPerCall)
	amt := 1 + c.rng.Int64N(50)
	if c.rng.IntN(2) == 0 {
		amt = -amt
	}
	key := groupKey(c.id, g)
	a, b := st.bal[g][0], st.bal[g][1]
	ops := []tspace.TxnOp{
		{Kind: tspace.TxnTake, Space: "bank", Tup: tspace.Tuple{key, int64(0), a}},
		{Kind: tspace.TxnTake, Space: "bank", Tup: tspace.Tuple{key, int64(1), b}},
		{Kind: tspace.TxnPut, Space: "bank", Tup: tspace.Tuple{key, int64(0), a - amt}},
		{Kind: tspace.TxnPut, Space: "bank", Tup: tspace.Tuple{key, int64(1), b + amt}},
	}
	t0 := time.Now()
	err := w.cl.CommitTxn(nil, ops)
	c.span("rpc.txn", t0)
	if err != nil {
		w.resync(st, c.id, g)
		return err
	}
	st.bal[g][0], st.bal[g][1] = a-amt, b+amt
	return nil
}

// resync re-reads a group's balances after a failed commit, whose effect
// the caller cannot know.
func (w *rpcWorkload) resync(st *rpcState, caller, g int) {
	key := groupKey(caller, g)
	for a := int64(0); a < 2; a++ {
		if tup, _, err := w.bank.TryRd(nil, tspace.Template{key, a, tspace.F("v")}); err == nil {
			st.bal[g][a] = tup[2].(int64)
		}
	}
}

// check verifies conservation across both shards: every request was
// answered and its answer taken, the bank total is unchanged and matches
// the callers' books, and exactly the untaken TryGet targets remain.
func (w *rpcWorkload) check() error {
	var jobs, tries int
	var total int64
	bal := map[string]int64{}
	for _, sh := range w.shards {
		reg := sh.srv.Registry()
		jobs += reg.OpenDefault("jobs").Len()
		tries += reg.OpenDefault("try").Len()
		for _, tup := range passiveTuples(reg.OpenDefault("bank")) {
			total += tup[2].(int64)
			bal[fmt.Sprintf("%v/%v", tup[0], tup[1])] = tup[2].(int64)
		}
	}
	if jobs != 0 {
		return fmt.Errorf("jobs space holds %d unconsumed tuples", jobs)
	}
	wantTotal := int64(rpcCallers * groupsPerCall * 2 * rpcOpeningBal)
	if total != wantTotal {
		return fmt.Errorf("bank total %d, want %d", total, wantTotal)
	}
	wantTries := 0
	for c, st := range w.state {
		wantTries += len(st.tryPool)
		for g := 0; g < groupsPerCall; g++ {
			for a := 0; a < 2; a++ {
				k := fmt.Sprintf("%s/%d", groupKey(c, g), a)
				if bal[k] != st.bal[g][a] {
					return fmt.Errorf("account %s holds %d, caller's books say %d", k, bal[k], st.bal[g][a])
				}
			}
		}
	}
	if tries != wantTries {
		return fmt.Errorf("try space holds %d tuples, want %d", tries, wantTries)
	}
	return nil
}

func (w *rpcWorkload) counters() counters {
	var c counters
	for _, sh := range w.shards {
		c.addVMs(sh.vm)
		c.addSpaces(sh.srv.Registry())
		c.addServer(sh.srv)
	}
	c.addSTM()
	if w.cl != nil {
		c.addClientMetrics(w.cl.Collector().Collect())
	}
	return c
}

// echoTurnaround merges the echo threads' histograms.
func (w *rpcWorkload) echoTurnaround() *hist {
	var h hist
	for _, e := range w.echoes {
		e.mu.Lock()
		h.merge(&e.h)
		e.mu.Unlock()
	}
	return &h
}

func (w *rpcWorkload) dump(out io.Writer) {
	for _, sh := range w.shards {
		dumpVM(out, sh.vm)
		fmt.Fprintf(out, "server %s parked: %+v\n", sh.ln.Addr(), sh.srv.Parked())
		fmt.Fprintf(out, "server %s stats: %s\n", sh.ln.Addr(), sh.srv.Stats())
	}
}

func (w *rpcWorkload) close() {
	if w.cl != nil {
		w.cl.Close() //nolint:errcheck // teardown: nothing left to report to
	}
	for _, sh := range w.shards {
		ts := sh.srv.Registry().OpenDefault("jobs")
		_ = sh.run(func(ctx *core.Context) error { // best effort: the machine stops next
			for i := 0; i < echoPerShard; i++ {
				if err := ts.Put(ctx, tspace.Tuple{echoPoisonID, "req", int64(0)}); err != nil {
					return err
				}
			}
			return nil
		})
		sh.close()
	}
}

// ---------------------------------------------------------------------------
// fabric-puts: one caller keeps a window of asynchronous Puts in flight on
// one batching connection to a 2-PP server whose consumers drain them.

const (
	putWindow     = 64
	putConsumers  = 2
	putPoisonSeq  = int64(-1)
	putDrainLimit = 10 * time.Second
)

var putKinds = []string{"put"}

type pendingPut struct {
	pp *remote.PendingPut
	t0 time.Time
	v  int64
}

type putsWorkload struct {
	sh       *shard
	cl       *remote.Client
	sp       *remote.Space
	window   []pendingPut
	head     int
	seq      int64
	issued   int64
	acked    int64
	ackedSum int64
	failed   int64

	consumed, consumedSum atomic.Int64
}

func setupPuts(cfg *config) (workload, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sh, err := startShard("sink", 2, 2, nil, ln)
	if err != nil {
		ln.Close()
		return nil, err
	}
	w := &putsWorkload{sh: sh}
	ts := sh.srv.Registry().OpenDefault("sink")
	tpl := tspace.Template{"p", tspace.F("s"), tspace.F("v")}
	for i := 0; i < putConsumers; i++ {
		sh.vm.Spawn(func(ctx *core.Context) ([]core.Value, error) {
			for {
				_, b, err := ts.Get(ctx, tpl)
				if err != nil {
					return nil, err
				}
				if b["s"].(int64) == putPoisonSeq {
					return nil, nil
				}
				w.consumedSum.Add(b["v"].(int64))
				w.consumed.Add(1)
			}
		}, core.WithName("consumer"), core.WithStealable(false))
	}
	w.cl, err = remote.Dial(nil, ln.Addr().String(), remote.DialConfig{Batch: true, Timeout: opDeadline})
	if err != nil {
		sh.close()
		return nil, err
	}
	w.sp = w.cl.Space("sink")
	return w, nil
}

func (w *putsWorkload) kinds() []string { return putKinds }

func (w *putsWorkload) issue(c *caller) error {
	w.seq++
	v := 1 + c.rng.Int64N(1<<20)
	pp, err := w.sp.PutAsync(nil, tspace.Tuple{"p", w.seq, v})
	if err != nil {
		return err
	}
	w.issued++
	w.window = append(w.window, pendingPut{pp: pp, t0: time.Now(), v: v})
	return nil
}

// op waits for the oldest Put in the window, then issues the next one.
// The op's latency is that Put's issue-to-acknowledgement time.
func (w *putsWorkload) op(c *caller) (int, error) {
	for len(w.window)-w.head < putWindow {
		if err := w.issue(c); err != nil {
			return 0, err
		}
	}
	p := w.window[w.head]
	w.head++
	if w.head == len(w.window) || w.head > 4*putWindow {
		w.window = append(w.window[:0], w.window[w.head:]...)
		w.head = 0
	}
	err := p.pp.Wait(nil)
	c.opLatency = time.Since(p.t0)
	if c.traced {
		c.spans.child("rpc.put", p.t0, p.t0.Add(c.opLatency))
	}
	if err != nil {
		w.failed++
		return 0, err
	}
	w.acked++
	w.ackedSum += p.v
	return 0, nil
}

// check drains the window and verifies that the consumers took every
// acknowledged tuple exactly once, by count and by sum.
func (w *putsWorkload) check() error {
	for _, p := range w.window[w.head:] {
		if err := p.pp.Wait(nil); err != nil {
			w.failed++
			continue
		}
		w.acked++
		w.ackedSum += p.v
	}
	w.window, w.head = nil, 0
	deadline := time.Now().Add(putDrainLimit)
	for w.consumed.Load() < w.acked && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	n, sum := w.consumed.Load(), w.consumedSum.Load()
	switch {
	case w.failed == 0 && (n != w.acked || sum != w.ackedSum):
		return fmt.Errorf("consumed %d tuples summing %d, want %d summing %d", n, sum, w.acked, w.ackedSum)
	case n < w.acked || n > w.issued:
		return fmt.Errorf("consumed %d tuples; %d acknowledged, %d issued", n, w.acked, w.issued)
	}
	return nil
}

func (w *putsWorkload) counters() counters {
	var c counters
	c.addVMs(w.sh.vm)
	c.addSpaces(w.sh.srv.Registry())
	c.addServer(w.sh.srv)
	c.addSTM()
	c.addClientMetrics(remote.ClientCollector{Client: w.cl}.Collect())
	return c
}

func (w *putsWorkload) dump(out io.Writer) {
	dumpVM(out, w.sh.vm)
	fmt.Fprintf(out, "server parked: %+v\n", w.sh.srv.Parked())
	fmt.Fprintf(out, "server stats: %s\n", w.sh.srv.Stats())
	fmt.Fprintf(out, "puts: issued=%d acked=%d consumed=%d\n", w.issued, w.acked, w.consumed.Load())
}

func (w *putsWorkload) close() {
	for _, p := range w.window[w.head:] {
		_ = p.pp.Wait(nil) // flush before Close; the outcome no longer matters
	}
	w.cl.Close() //nolint:errcheck // teardown
	ts := w.sh.srv.Registry().OpenDefault("sink")
	_ = w.sh.run(func(ctx *core.Context) error { // best effort: the machine stops next
		for i := 0; i < putConsumers; i++ {
			if err := ts.Put(ctx, tspace.Tuple{"p", putPoisonSeq, int64(0)}); err != nil {
				return err
			}
		}
		return nil
	})
	w.sh.close()
}
