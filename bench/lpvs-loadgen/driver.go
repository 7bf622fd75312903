package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"lpvs/internal/router"
	"lpvs/internal/server"
	"lpvs/internal/stats"
	"lpvs/internal/wire"
)

// Load-model constants (bench/README.md, "Load model").
const (
	warmupSlots = 10
	checkEvery  = 10
	blocks      = 3
	readerRate  = 200 // background reads per second
	// smokeSlotsPerBlock makes the -smoke path three timed slots per
	// workload.
	smokeSlotsPerBlock = 1
	// traceCycle is the traced pass's slot rotation: of every five
	// slots one is traced, one runs in-process, three are plain.
	traceCycle = 5
)

// options are the run's knobs, set once from the flags.
type options struct {
	seed int64
	// seconds is the timed slot time per workload; what runs off the
	// timer between slots comes on top.
	seconds float64
	trace   bool
	smoke   bool
	workdir string
}

// opCount is attempted/failed operations of one phase.
type opCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

func (c *opCount) note(err error) bool {
	c.Attempted++
	if err != nil {
		c.Failed++
		return false
	}
	c.Succeeded++
	return true
}

// bgRead is one background read: when it was due, how late the
// generator sent it, and how long after the due time the reply came.
type bgRead struct {
	due     time.Time
	late    time.Duration
	latency time.Duration
}

// slotKind selects how one slot is driven.
type slotKind int

const (
	plain slotKind = iota
	traced
	inprocess
)

// session is one workload's booted deployment plus everything measured
// on it.
type session struct {
	in    *inputs
	opt   options
	dir   string
	cl    *cluster
	drv   *socket
	bg    *socket
	ref   *reference
	probe samples // layer probe samples (traced pass and checks)
	tr    *tracer
	// tracedSched keeps the scheduler breakdown of traced federated
	// ticks until attribute places it in the span tree.
	tracedSched map[int]server.TickStats
	// Reused by the wire probe so its steady state is what is measured.
	encBuf []byte
	dec    *wire.Decoder
	decOut []wire.ReportRequest

	setupSec float64
	slot     int // slots driven since boot; mirrors the daemon's counter

	// Timed-slot samples.
	slotMS, tickMS     []float64
	tracedMS, inprocMS []float64
	sched              []server.TickStats
	plainMS            []float64
	tickAt             [][2]time.Time
	lastTick           [2]time.Time
	reads              []bgRead
	bgCost             readCost
	meter              meter
	timed              int
	nextCheck          int
	// auditBefore is the audit log's size before the latest timed slot:
	// that slot's record starts there.
	auditBefore int64

	ops struct {
		Report, Tick, Read, Background, Check opCount
	}
	firstErr error

	answers slotAnswers
}

func (s *session) fail(err error) {
	if err != nil && s.firstErr == nil {
		s.firstErr = err
		fmt.Fprintf(os.Stderr, "%s: %v\n", s.in.spec.name, err)
	}
}

// newSession sets one workload up: inputs and reference from the seed,
// boot, /readyz, warm-up slots. setup_s is the wall time of all of it.
func newSession(sp spec, opt options) (*session, error) {
	start := time.Now()
	in, err := genInputs(sp, opt.seed)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(in)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.workdir, sp.name+"-")
	if err != nil {
		return nil, err
	}
	s := &session{in: in, opt: opt, dir: dir, ref: ref, probe: samples{}, tracedSched: map[int]server.TickStats{}}
	if opt.trace {
		s.tr = newTracer()
	}
	s.answers.transform = make([]bool, len(in.readPaths))
	s.answers.decSlot = make([]int, len(in.readPaths))
	if err := s.boot(); err != nil {
		s.close()
		return nil, err
	}
	s.setupSec = time.Since(start).Seconds()
	return s, nil
}

// boot starts the deployment, waits for /readyz and drives the untimed
// warm-up slots.
func (s *session) boot() error {
	cl, err := boot(s.in, s.dir, s.opt.trace)
	if err != nil {
		return err
	}
	s.cl = cl
	if s.drv, err = newSocket(cl.front.url); err != nil {
		return err
	}
	if s.bg, err = newSocket(cl.front.url); err != nil {
		return err
	}
	if err := waitReady(s.drv); err != nil {
		return err
	}
	warm := warmupSlots
	if s.opt.smoke {
		warm = 1
	}
	for i := 0; i < warm; i++ {
		s.runSlot(plain)
		s.dropAuditLog()
	}
	s.ops.Report, s.ops.Tick, s.ops.Read = opCount{}, opCount{}, opCount{}
	s.measureReadCost()
	return s.firstErr
}

// measureReadCost takes what one background read allocates, with
// nothing else running, as the mean over bgCostReads reads.
func (s *session) measureReadCost() {
	const bgCostReads = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < bgCostReads; i++ {
		var dec server.DecisionResponse
		s.fail(s.bg.get(s.in.bgPaths[i%len(s.in.bgPaths)], &dec))
	}
	runtime.ReadMemStats(&after)
	s.bgCost = readCost{
		mallocs: float64(after.Mallocs-before.Mallocs) / bgCostReads,
		bytes:   float64(after.TotalAlloc-before.TotalAlloc) / bgCostReads,
	}
}

func (s *session) close() {
	if s.drv != nil {
		s.drv.close()
	}
	if s.bg != nil {
		s.bg.close()
	}
	if s.cl != nil {
		s.cl.close()
	}
	os.RemoveAll(s.dir)
}

// runSlot drives one slot: report phase, tick, read phase. Plain and
// traced slots go over the driver's socket; an in-process slot calls
// the front daemon's handler directly and fills the handler-side layer
// probes. It returns the slot's wall time.
func (s *session) runSlot(kind slotKind) time.Duration {
	in, sp := s.in, s.in.spec
	pos := s.slot % cyclePositions
	var t transport = s.drv
	var ip *inproc
	if kind == inprocess {
		ip = &inproc{h: s.cl.front.handler}
		t = ip
	}
	var tr *tracer
	if kind == traced {
		tr = s.tr
	}
	// Plain slots time only the phases; traced and in-process slots time
	// every request.
	perRequest := kind != plain
	stamp := func() (t time.Time) {
		if perRequest {
			t = time.Now()
		}
		return t
	}

	t0 := time.Now()
	slotID := tr.open(0, s.slot, "bench.slot", t0)
	phase := tr.open(slotID, s.slot, "bench.report_phase", t0)
	if sp.perDevice {
		for d, body := range in.single[pos] {
			r0 := stamp()
			var rr server.ReportResponse
			err := t.post("/v1/report", "application/json", body, &rr)
			if err == nil && !rr.Accepted {
				err = fmt.Errorf("report of %s not accepted", in.fleet[d].DeviceID)
			}
			if !s.ops.Report.note(err) {
				s.fail(err)
			}
			if perRequest {
				s.request(tr, phase, kind, "report1", r0)
			}
		}
	} else {
		var br server.BatchReportResponse
		err := t.post("/v1/report", wire.ContentType, in.batch[pos], &br)
		if err == nil && br.Rejected > 0 {
			err = fmt.Errorf("%d reports rejected", br.Rejected)
		}
		if !s.ops.Report.note(err) {
			s.fail(err)
		}
		if perRequest {
			s.request(tr, phase, kind, "report", t0)
		}
	}
	t1 := time.Now()
	tr.close(phase, t1)

	// An in-process tick is the server.tick_* probe: its allocation
	// counts are clean because the background reader is stopped.
	a := &s.answers
	a.tick = router.TickResponse{}
	var ms0 runtime.MemStats
	var calls0 map[string]float64
	if ip != nil {
		calls0 = s.shardCallSeconds()
		runtime.ReadMemStats(&ms0)
	}
	tickStart := time.Now()
	err := t.post("/v1/tick", "application/json", nil, &a.tick)
	t2 := time.Now()
	if !s.ops.Tick.note(err) {
		s.fail(err)
	}
	s.lastTick = [2]time.Time{tickStart, t2}
	if ip != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		s.probe.add("server.tick_handler_ms", ms(t2.Sub(tickStart)))
		s.probe.add("server.tick_allocs", float64(ms1.Mallocs-ms0.Mallocs))
		s.probe.add("server.tick_kb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024)
		s.probe.add("server.tick_response_bytes", float64(ip.last.Body.Len()))
		s.probe.add("server.tick_overhead_ms", ms(t2.Sub(tickStart))-1000*schedWallSec(a.tick.Sched))
		if calls0 != nil {
			slowest := 0.0
			for node, sec := range s.shardCallSeconds() {
				slowest = max(slowest, sec-calls0[node])
			}
			s.probe.add("router.shard_call_ms", 1000*slowest)
			s.probe.add("router.tick_overhead_ms", ms(t2.Sub(tickStart))-1000*slowest)
		}
	}
	if tr != nil {
		s.tickSpans(tr, slotID, tickStart, t2)
	}

	phase = tr.open(slotID, s.slot, "bench.read_phase", t2)
	for i, path := range in.readPaths {
		r0 := stamp()
		var dec server.DecisionResponse
		err := t.get(path, &dec)
		if !s.ops.Read.note(err) {
			s.fail(err)
		}
		a.transform[i], a.decSlot[i] = dec.Transform, dec.Slot
		if perRequest {
			s.request(tr, phase, kind, "decision", r0)
		}
		if sp.perDevice {
			r0 = stamp()
			var ch server.ChunkResponse
			if err := t.get(in.chunkPaths[i], &ch); !s.ops.Read.note(err) {
				s.fail(err)
			}
			if perRequest {
				s.request(tr, phase, kind, "chunk", r0)
			}
		}
	}
	t3 := time.Now()
	tr.close(phase, t3)
	tr.close(slotID, t3)
	s.slot++
	return t3.Sub(t0)
}

// request records one closed-loop request: a span on traced slots, a
// sample of the in-process handler time on in-process slots.
func (s *session) request(tr *tracer, parent int, kind slotKind, op string, start time.Time) {
	end := time.Now()
	if kind == inprocess {
		s.probe.add("inproc."+op+"_us", us(end.Sub(start)))
		return
	}
	s.probe.add("socket."+op+"_us", us(end.Sub(start)))
	tr.add(parent, s.slot, "client."+op, start, end)
}

// schedWallSec is the scheduler's share of a tick's wall time as the
// daemon reports it. A standalone tick solves one VC, so the three
// stages add up to wall time. A federated tick reports sums over VCs
// solved in parallel, which can exceed the tick; the scheduler then
// counts for the whole server-side wall time.
func schedWallSec(st server.TickStats) float64 {
	return min(st.CompactSec+st.Phase1Sec+st.Phase2Sec, st.DurationSec)
}

// tickSpans records the tick's client span and, inside it, what the
// daemon's own reply says about where the time went: the server-side
// wall time and the scheduler's stages. A federated reply's stage times
// are CPU sums over VCs solved in parallel on the shards; attribute
// places them inside the shard call once its wall time is known.
func (s *session) tickSpans(tr *tracer, parent int, start, end time.Time) {
	st := s.answers.tick.Sched
	id := tr.add(parent, s.slot, "client.tick", start, end)
	srvEnd := start.Add(min(seconds(st.DurationSec), end.Sub(start)))
	if s.in.spec.shards > 0 {
		tr.add(id, s.slot, "router.tick", start, srvEnd)
		s.tracedSched[s.slot] = st
		return
	}
	sid := tr.add(id, s.slot, "server.tick", start, srvEnd)
	at := start
	for _, stage := range stages(st) {
		next := at.Add(stage.dur)
		tr.add(sid, s.slot, stage.name, at, next)
		at = next
	}
}

type stage struct {
	name string
	dur  time.Duration
}

// stages names a tick's three scheduler stages; Phase-1 is charged to
// ilp when branch and bound ran.
func stages(st server.TickStats) []stage {
	phase1 := "scheduler.phase1"
	if st.Phase1Nodes > 0 {
		phase1 = "ilp.phase1"
	}
	return []stage{
		{"scheduler.compact", seconds(st.CompactSec)},
		{phase1, seconds(st.Phase1Sec)},
		{"scheduler.phase2", seconds(st.Phase2Sec)},
	}
}

func seconds(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }

// runBlock drives timed slots until the run's timed slot time reaches
// timedUntil or, when maxSlots is positive, the block has driven that
// many. Each timed slot is metered with the background reader running;
// correctness checks, in-process slots and layer probes run between
// timed slots, off the timer, with the reader stopped.
func (s *session) runBlock(timedUntil time.Duration, maxSlots int) {
	for done := 0; s.meter.wall < timedUntil && (maxSlots <= 0 || done < maxSlots) && s.firstErr == nil; {
		kind := plain
		if s.opt.trace {
			switch s.slot % traceCycle {
			case 1:
				kind = traced
			case 3:
				kind = inprocess
			}
		}
		if kind == inprocess {
			s.inprocSlot()
			continue
		}
		s.auditBefore = fileSize(s.cl.auditPath)
		readsBefore := len(s.reads)
		s.meter.start()
		stopReader := s.startReader()
		wall := s.runSlot(kind)
		stopReader()
		s.meter.stop(wall, len(s.reads)-readsBefore, s.bgCost)

		s.timed++
		done++
		s.slotMS = append(s.slotMS, ms(wall))
		s.tickMS = append(s.tickMS, ms(s.lastTick[1].Sub(s.lastTick[0])))
		s.tickAt = append(s.tickAt, s.lastTick)
		s.sched = append(s.sched, s.answers.tick.Sched)
		if s.cl.auditPath != "" {
			s.probe.add("audit.bytes_per_tick", float64(fileSize(s.cl.auditPath)-s.auditBefore))
		}
		if kind == traced {
			s.tracedMS = append(s.tracedMS, ms(wall))
			s.layerProbes()
		} else {
			s.plainMS = append(s.plainMS, ms(wall))
		}
		if s.timed >= s.nextCheck {
			s.nextCheck = s.timed + checkEvery
			n, err := s.check(&s.answers)
			s.fail(err)
			s.ops.Check.Attempted++
			if n > 0 || err != nil {
				s.ops.Check.Failed += max(n, 1)
			} else {
				s.ops.Check.Succeeded++
			}
		}
		s.dropAuditLog()
	}
}

// dropAuditLog truncates the audit log, off the timer. The daemon holds
// it O_APPEND, so writing continues at the new end. Dropping each record
// before the kernel writes it back keeps the disk bounded and the shared
// disk's flush stalls out of the slot times.
func (s *session) dropAuditLog() {
	if s.cl.auditPath != "" {
		s.fail(os.Truncate(s.cl.auditPath, 0))
	}
}

// startReader starts the open-loop background reader for one timed
// slot and returns the function that stops it and waits for its last
// read. It issues GET /v1/decision on its own connection every
// 1/readerRate seconds however the previous read went; each read is
// timed from the moment it was due. The reader owns s.reads and
// s.ops.Background until the stop function returns.
func (s *session) startReader() (stop func()) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		const gap = time.Second / readerRate
		for due := time.Now(); ; due = due.Add(gap) {
			select {
			case <-quit:
				return
			case <-time.After(time.Until(due)):
			}
			sent := time.Now()
			var dec server.DecisionResponse
			err := s.bg.get(s.in.bgPaths[len(s.reads)%len(s.in.bgPaths)], &dec)
			s.ops.Background.note(err)
			s.reads = append(s.reads, bgRead{due: due, late: sent.Sub(due), latency: time.Since(due)})
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

func fileSize(path string) int64 {
	if path == "" {
		return 0
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// samples collects named probe samples.
type samples map[string][]float64

func (p samples) add(name string, v float64) { p[name] = append(p[name], v) }

func (p samples) median(name string) float64 { return stats.Percentile(p[name], 50) }
