// Command lpvsd runs the LPVS edge daemon: an HTTP service that gathers
// device reports, schedules video transforming each slot, and serves
// decisions and chunk metadata.
//
// Usage:
//
//	lpvsd -addr :8080 -capacity 100 -lambda 1 -slot 300
//	lpvsd -log-level debug -log-format json
//	lpvsd -pprof            # mounts net/http/pprof under /debug/pprof/
//
// Federation (DESIGN.md §17): -mode selects the process personality.
// The default, edge, is the standalone daemon. A shard is an edge
// daemon that additionally serves the node-to-node /v1/shard/* API
// (per-channel federated ticks and shard-map exchange);
// a router owns a consistent-hash shard map and fronts the fleet:
//
//	lpvsd -mode shard  -addr :8081 -node-id a -channels music,news
//	lpvsd -mode shard  -addr :8082 -node-id b -channels music,news
//	lpvsd -mode router -addr :8080 -shard-map map.json
//
// A background ticker advances the scheduling slot every -slot seconds
// (use -manual-tick to drive slots via POST /v1/tick instead, as the
// tests and the streaming-service example do). Every -history-interval
// one sampling pass refreshes the runtime gauges, evaluates the SLOs
// and, on an edge or shard daemon, records the metric history.
//
// Observability: Prometheus metrics are exposed on /metrics, structured
// logs (log/slog) go to stderr, and -pprof adds the standard profiling
// endpoints so `go tool pprof http://host:8080/debug/pprof/profile`
// works against a live daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"lpvs/internal/obs"
	"lpvs/internal/obs/history"
	"lpvs/internal/obs/runtimecollector"
	"lpvs/internal/obs/slo"
	"lpvs/internal/router"
	"lpvs/internal/server"
	"lpvs/internal/shard"
	"lpvs/internal/stats"
	"lpvs/internal/video"
)

// version identifies the build; override at link time with
// `go build -ldflags "-X main.version=v1.2.3" ./cmd/lpvsd`.
var version = "dev"

// defaultChannel is the ID of the stream every edge and shard daemon
// serves, and so the channel a router assumes for a report that names
// none: the two must agree or router and shards would place such a
// device in different VCs.
const defaultChannel = "live"

// contentSeed seeds the generated content of the default stream; extra
// channel i gets contentSeed+i+1, so daemons started with the same
// -channels serve the same chunks.
const contentSeed = 1

// options is lpvsd's command line.
type options struct {
	addr, mode, nodeID, shardMapFile, channels         string
	logLevel, logFormat                                string
	auditDir, snapshotDir, flightDir                   string
	capacity, workers, maxInflight, maxBatch, vcBudget int
	lambda, slotSec, traceSample                       float64
	schedDeadline, sloLatency                          time.Duration
	snapshotEvery, historyWindow, historyEvery         time.Duration
	manualTick, pprof, showVersion                     bool
}

// registerFlags defines every lpvsd flag on fs; the returned options
// hold their values once fs is parsed.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.capacity, "capacity", 100, "edge capacity in 720p transform streams (-1 = unbounded)")
	fs.Float64Var(&o.lambda, "lambda", 1, "energy/anxiety balance")
	fs.Float64Var(&o.slotSec, "slot", 300, "scheduling slot length in seconds (edge and shard: at least one 10 s chunk)")
	fs.IntVar(&o.workers, "workers", runtime.GOMAXPROCS(0), "scheduling pool fan-out (1 = serial)")
	fs.BoolVar(&o.manualTick, "manual-tick", false, "disable the automatic slot ticker")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&o.logFormat, "log-format", "text", "log format: text, json")
	fs.BoolVar(&o.pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	fs.StringVar(&o.auditDir, "audit-dir", "", "append per-tick decision audit records to DIR/audit.jsonl (replayable with lpvsctl audit replay)")
	fs.Float64Var(&o.traceSample, "trace-sample", 0, "span-tracing sampling probability in [0, 1] (0 = off)")
	fs.DurationVar(&o.schedDeadline, "sched-deadline", 0, "per-tick scheduling wall-clock budget; on expiry the tick degrades to the anytime shortcuts (0 = unbounded)")
	fs.IntVar(&o.maxInflight, "max-inflight", server.DefaultMaxInflight, "admitted heavy requests before 429 load shedding (negative = no gate)")
	fs.IntVar(&o.maxBatch, "max-batch-records", server.DefaultMaxBatchRecords, "records accepted per batch report before 413 (negative = unbounded)")
	fs.IntVar(&o.vcBudget, "vc-label-budget", 64, "per-family cap on per-VC labeled metric series (0 = no per-VC series, negative = uncapped)")
	fs.DurationVar(&o.sloLatency, "slo-tick-latency", server.DefaultSLOTickLatency, "tick wall-time budget behind the tick-latency SLO")
	fs.StringVar(&o.snapshotDir, "snapshot-dir", "", "persist durable state to DIR/snapshot.lpvs and restore from it on boot (see DESIGN.md §14)")
	fs.DurationVar(&o.snapshotEvery, "snapshot-interval", time.Minute, "background snapshot cadence when -snapshot-dir is set (0 = only on shutdown)")
	fs.DurationVar(&o.historyWindow, "history-window", 15*time.Minute, "in-process metric history retention behind GET /v1/history (0 = off; see DESIGN.md §15)")
	fs.DurationVar(&o.historyEvery, "history-interval", history.DefaultInterval, "background sampling cadence: runtime gauges, SLO burn rates and metric history")
	fs.StringVar(&o.flightDir, "flight-dir", "", "arm the flight recorder: write incident bundles to DIR (inspect with lpvsctl flight)")
	fs.StringVar(&o.mode, "mode", "edge", "process personality: edge (standalone), shard (federation member), router (federation front door)")
	fs.StringVar(&o.nodeID, "node-id", "", "this shard's node ID in the shard map (mode=shard)")
	fs.StringVar(&o.shardMapFile, "shard-map", "", "shard map spec file, JSON {replicas, nodes:[{id,addr}]} (required for mode=router; optional epoch guard for mode=shard)")
	fs.StringVar(&o.channels, "channels", "", "comma-separated extra channel IDs served alongside the default 'live' stream")
	fs.BoolVar(&o.showVersion, "version", false, "print the build version and exit")
	return o
}

// checkSlot validates -slot before anything is built from it: the slot
// ticker needs a positive period that fits a time.Duration, and an edge
// or shard daemon's slot must hold at least one chunk of its streams.
func checkSlot(mode string, slotSec float64) error {
	if ns := slotSec * float64(time.Second); !(ns >= 1 && ns < math.MaxInt64) {
		return fmt.Errorf("-slot %v: want a positive number of seconds", slotSec)
	}
	if mode != "router" && slotSec < video.DefaultChunkSeconds {
		return fmt.Errorf("-slot %v: a slot must hold at least one %v s chunk", slotSec, video.DefaultChunkSeconds)
	}
	return nil
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	if o.showVersion {
		fmt.Printf("lpvsd %s\n", version)
		return
	}

	logger, err := obs.NewLogger(os.Stderr, o.logLevel, o.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
	if err := checkSlot(o.mode, o.slotSec); err != nil {
		fatal(err)
	}

	opts := serveOpts{
		addr:        o.addr,
		slotSec:     o.slotSec,
		pprof:       o.pprof,
		sampleEvery: o.historyEvery,
	}
	if opts.sampleEvery <= 0 {
		// What history.New makes of it too.
		opts.sampleEvery = history.DefaultInterval
	}
	if !o.manualTick {
		// A shard's slots are advanced by its router's fan-out when one
		// is deployed, and then the shard runs -manual-tick: the router
		// must be the only one that ticks it (DESIGN.md §17). The local
		// ticker targets the shard endpoint so a router-less shard
		// (tests, development) still advances.
		opts.tickPath = "/v1/tick"
		if o.mode == "shard" {
			opts.tickPath = "/v1/shard/tick"
		}
	}

	switch o.mode {
	case "edge", "shard":
	case "router":
		// No streams, no scheduler — just the federation front door over
		// the shard map.
		if o.shardMapFile == "" {
			fatal(errors.New("-mode=router requires -shard-map"))
		}
		m, err := shard.ParseFile(o.shardMapFile)
		if err != nil {
			fatal(err)
		}
		rt, err := router.New(router.Config{
			Map:            m,
			DefaultChannel: defaultChannel,
			Logger:         logger,
		})
		if err != nil {
			fatal(err)
		}
		logger.Info("lpvsd router listening", "addr", o.addr, "version", version,
			"epoch", m.Epoch(), "nodes", len(m.Nodes()), "default_channel", defaultChannel)
		if err := serve(logger, rt, opts); err != nil {
			fatal(err)
		}
		return
	default:
		fatal(fmt.Errorf("unknown -mode %q (edge, shard, router)", o.mode))
	}

	chunks := int(o.slotSec/video.DefaultChunkSeconds) * 12 // two hours of content, wrapped
	stream, err := video.Generate(stats.NewRNG(contentSeed), video.DefaultGenConfig(defaultChannel, video.Gaming, chunks))
	if err != nil {
		fatal(err)
	}
	// Extra channels share the genre and slot geometry; each gets its
	// own derived seed so content differs across channels but stays
	// reproducible across daemons started with the same flags.
	var extras []*video.Video
	if o.channels != "" {
		for i, id := range strings.Split(o.channels, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			v, err := video.Generate(stats.NewRNG(contentSeed+int64(i)+1), video.DefaultGenConfig(id, video.Gaming, chunks))
			if err != nil {
				fatal(err)
			}
			extras = append(extras, v)
		}
	}
	var smap *shard.Map
	if o.shardMapFile != "" {
		if smap, err = shard.ParseFile(o.shardMapFile); err != nil {
			fatal(err)
		}
	}
	srv, err := server.New(server.Config{
		Stream:           stream,
		ExtraStreams:     extras,
		ShardMode:        o.mode == "shard",
		NodeID:           o.nodeID,
		ShardMap:         smap,
		ServerStreams:    o.capacity,
		Lambda:           o.lambda,
		SlotSec:          o.slotSec,
		Workers:          o.workers,
		Logger:           logger,
		AuditDir:         o.auditDir,
		TraceSample:      o.traceSample,
		SchedDeadline:    o.schedDeadline,
		MaxInflight:      o.maxInflight,
		MaxBatchRecords:  o.maxBatch,
		VCLabelBudget:    o.vcBudget,
		SLOTickLatency:   o.sloLatency,
		SnapshotDir:      o.snapshotDir,
		SnapshotInterval: o.snapshotEvery,
		HistoryWindow:    o.historyWindow,
		HistoryInterval:  o.historyEvery,
		FlightDir:        o.flightDir,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	opts.history = srv.History()
	if o.snapshotDir != "" {
		opts.snapshot = srv.SaveSnapshot
		opts.snapshotEvery = o.snapshotEvery
	}
	logger.Info("lpvsd listening",
		"addr", o.addr, "version", version, "capacity", o.capacity,
		"lambda", o.lambda, "slot_sec", o.slotSec, "workers", o.workers,
		"pprof", o.pprof, "audit_dir", o.auditDir,
		"snapshot_dir", o.snapshotDir, "flight_dir", o.flightDir,
		"history_window", o.historyWindow,
		"trace_sample", o.traceSample,
		"sched_deadline", o.schedDeadline, "max_inflight", o.maxInflight,
		"max_batch_records", o.maxBatch)
	if err := serve(logger, srv, opts); err != nil {
		fatal(err)
	}
}

// personality is what serve needs of a process personality; the edge
// daemon (*server.Server, shard mode included) and the router
// (*router.Router) both provide it.
type personality interface {
	Handler() http.Handler
	Registry() *obs.Registry
	SLO() *slo.Engine
	SetReady(bool)
}

// serveOpts is the part of the command line the process loop consumes.
type serveOpts struct {
	addr string
	// tickPath is the slot-advance endpoint the background ticker posts
	// every slotSec seconds; empty disables the ticker (-manual-tick).
	tickPath string
	slotSec  float64
	pprof    bool
	// sampleEvery is the period of the sampling loop (-history-interval).
	sampleEvery time.Duration

	// Edge-daemon extras, nil on a router: the metric history the
	// sampling loop records (DESIGN.md §15) and durable-state snapshots
	// (§14), written every snapshotEvery (0 = never) and once more
	// after the drain.
	history       *history.Store
	snapshot      func() error
	snapshotEvery time.Duration
}

// serve is the one process loop of every personality: it mounts pprof,
// starts the sampling loop and the slot ticker, serves p's handler
// until SIGINT/SIGTERM, then drains in order — readiness off, in-flight
// requests, sampling loop, final snapshot.
func serve(logger *slog.Logger, p personality, o serveOpts) error {
	obs.RegisterBuildInfo(p.Registry(), "lpvsd", version)

	handler := p.Handler()
	if o.pprof {
		// Mount pprof explicitly instead of importing it for its
		// DefaultServeMux side effect, so profiling is opt-in.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The sampling loop (DESIGN.md §13) stops on its own channel, not
	// the signal context, so the shutdown goroutine can stop it and WAIT
	// for it before the final snapshot — the snapshot and final flight
	// bundle must never race a sampling pass.
	smp := sampler{
		runtime: runtimecollector.New(p.Registry()),
		slo:     p.SLO(),
		history: o.history,
	}
	sampleStop, sampleDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampleDone)
		obs.Every(sampleStop, o.sampleEvery, smp.pass)
	}()

	// Periodic durable-state snapshots (DESIGN.md §14). The final
	// snapshot is taken by the shutdown goroutine after drain, so a
	// clean restart warm-boots from the freshest possible state.
	if o.snapshot != nil && o.snapshotEvery > 0 {
		go func() {
			ticker := time.NewTicker(o.snapshotEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
				if err := o.snapshot(); err != nil {
					logger.Warn("snapshot", "err", err)
				}
			}
		}()
	}

	if o.tickPath != "" {
		url, err := tickURL(o.addr, o.tickPath)
		if err != nil {
			return err
		}
		go runTicker(ctx, logger, url, o.slotSec)
	}

	// Server-side timeouts (DESIGN.md §12): a client that stalls its
	// headers, trickles a body, or never reads the response must not pin
	// a connection forever. WriteTimeout leaves room for the slowest
	// gated tick; IdleTimeout reaps abandoned keep-alives.
	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	// ListenAndServe returns ErrServerClosed as soon as Shutdown
	// begins, so serve must wait for this goroutine — otherwise the
	// process exits racing the drain and the final snapshot.
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		logger.Info("shutting down")
		// Flip readiness first so load balancers drain this instance
		// while in-flight requests finish; /healthz stays 200 throughout.
		p.SetReady(false)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		// Stop the sampling loop — and wait for it — before the final
		// snapshot, so nothing mutates state while it is being written.
		close(sampleStop)
		<-sampleDone
		// Snapshot after drain so the on-disk state reflects every
		// admitted report.
		if o.snapshot != nil {
			if err := o.snapshot(); err != nil {
				logger.Error("final snapshot", "err", err)
			}
		}
	}()

	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-shutdownDone
	return nil
}

// tickURL is where the background ticker reaches a daemon listening on
// addr: the listener's own host, or loopback when addr leaves the host
// empty or unspecified (":8080", "0.0.0.0:8080", "[::]:8080").
func tickURL(addr, path string) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("-addr %q: %w", addr, err)
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port) + path, nil
}

// runTicker posts the slot-advance endpoint every slot period until
// ctx is done.
func runTicker(ctx context.Context, logger *slog.Logger, url string, slotSec float64) {
	client := &http.Client{Timeout: 30 * time.Second}
	ticker := time.NewTicker(time.Duration(slotSec * float64(time.Second)))
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		resp, err := client.Post(url, "application/json", nil)
		if err != nil {
			logger.Warn("tick", "err", err)
			continue
		}
		resp.Body.Close()
	}
}

// sampler is the daemon's one background sampling pass (DESIGN.md §13):
// the runtime gauges, then the SLO burn rates, then — on an edge or
// shard daemon — the metric history, so every history point holds the
// runtime gauges and SLO states of its own pass.
type sampler struct {
	runtime *runtimecollector.Collector
	slo     *slo.Engine
	history *history.Store // nil on a router or with -history-window 0
}

func (s sampler) pass() {
	s.runtime.Sample()
	s.slo.Evaluate()
	if s.history != nil {
		s.history.Sample()
	}
}
