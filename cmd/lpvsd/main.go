// Command lpvsd runs the LPVS edge daemon: an HTTP service that gathers
// device reports, schedules video transforming each slot, and serves
// decisions and chunk metadata.
//
// Usage:
//
//	lpvsd -addr :8080 -capacity 100 -lambda 1 -genre Gaming
//	lpvsd -log-level debug -log-format json
//	lpvsd -pprof            # mounts net/http/pprof under /debug/pprof/
//
// Federation (DESIGN.md §17): -mode selects the process personality.
// The default, edge, is the standalone daemon. A shard is an edge
// daemon that additionally serves the node-to-node /v1/shard/* API
// (per-channel federated ticks, state handoff, shard-map exchange);
// a router owns a consistent-hash shard map and fronts the fleet:
//
//	lpvsd -mode shard  -addr :8081 -node-id a -channels music,news
//	lpvsd -mode shard  -addr :8082 -node-id b -channels music,news
//	lpvsd -mode router -addr :8080 -shard-map map.json
//
// A background ticker advances the scheduling slot every -slot seconds
// (use -manual-tick to drive slots via POST /v1/tick instead, as the
// tests and the streaming-service example do).
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
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
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

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		capacity      = flag.Int("capacity", 100, "edge capacity in 720p transform streams (-1 = unbounded)")
		lambda        = flag.Float64("lambda", 1, "energy/anxiety balance")
		slotSec       = flag.Float64("slot", 300, "scheduling slot length in seconds")
		workers       = flag.Int("workers", runtime.GOMAXPROCS(0), "scheduling pool fan-out (1 = serial)")
		genreName     = flag.String("genre", "Gaming", "stream genre (Gaming, Esports, IRL, Music, Sports)")
		seed          = flag.Int64("seed", 1, "content generation seed")
		manualTick    = flag.Bool("manual-tick", false, "disable the automatic slot ticker")
		logLevel      = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat     = flag.String("log-format", "text", "log format: text, json")
		enablePprof   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		auditDir      = flag.String("audit-dir", "", "append per-tick decision audit records to DIR/audit.jsonl (replayable with lpvs-audit)")
		traceSample   = flag.Float64("trace-sample", 0, "span-tracing sampling probability in [0, 1] (0 = off)")
		traceSeed     = flag.Int64("trace-seed", 0, "seed for trace/span IDs (0 = default)")
		schedDeadline = flag.Duration("sched-deadline", 0, "per-tick scheduling wall-clock budget; on expiry the tick degrades to the anytime shortcuts (0 = unbounded)")
		maxInflight   = flag.Int("max-inflight", server.DefaultMaxInflight, "admitted heavy requests before 429 load shedding (negative = no gate)")
		maxBatch      = flag.Int("max-batch-records", server.DefaultMaxBatchRecords, "records accepted per batch report before 413 (negative = unbounded)")
		vcBudget      = flag.Int("vc-label-budget", 64, "per-family cap on per-VC labeled metric series (0 = no per-VC series, negative = uncapped)")
		sloLatency    = flag.Duration("slo-tick-latency", server.DefaultSLOTickLatency, "tick wall-time budget behind the tick-latency SLO")
		sloInterval   = flag.Duration("slo-interval", 5*time.Second, "background SLO burn-rate evaluation interval")
		runtimeEvery  = flag.Duration("runtime-metrics-interval", 10*time.Second, "runtime self-telemetry sampling interval (0 = off)")
		snapshotDir   = flag.String("snapshot-dir", "", "persist durable state to DIR/snapshot.lpvs and restore from it on boot (see DESIGN.md §14)")
		snapshotEvery = flag.Duration("snapshot-interval", time.Minute, "background snapshot cadence when -snapshot-dir is set (0 = only on shutdown)")
		historyWindow = flag.Duration("history-window", 15*time.Minute, "in-process metric history retention behind GET /v1/history (0 = off; see DESIGN.md §15)")
		historyEvery  = flag.Duration("history-interval", 5*time.Second, "metric history sampling cadence")
		flightDir     = flag.String("flight-dir", "", "arm the flight recorder: write incident bundles to DIR (inspect with lpvs-flight)")
		flightTrig    = flag.String("flight-triggers", "all", "flight-recorder triggers: comma list of slo,panic,shed,manual, or all/none")
		mode          = flag.String("mode", "edge", "process personality: edge (standalone), shard (federation member), router (federation front door)")
		nodeID        = flag.String("node-id", "", "this shard's node ID in the shard map (mode=shard)")
		shardMapFile  = flag.String("shard-map", "", "shard map spec file, JSON {replicas, nodes:[{id,addr}]} (required for mode=router; optional epoch guard for mode=shard)")
		channels      = flag.String("channels", "", "comma-separated extra channel IDs served alongside the default 'live' stream")
		defaultChan   = flag.String("default-channel", "live", "channel assumed for reports without a channel_id (mode=router; must match the shards' default stream ID)")
		showVersion   = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *showVersion {
		fmt.Printf("lpvsd %s\n", version)
		return
	}

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fatal := func(err error) {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}

	opts := serveOpts{
		addr:         *addr,
		slotSec:      *slotSec,
		pprof:        *enablePprof,
		sloInterval:  *sloInterval,
		runtimeEvery: *runtimeEvery,
	}
	if !*manualTick {
		// A shard's slots are advanced by its router's fan-out when one
		// is deployed; the local ticker targets the shard endpoint so a
		// router-less shard (tests, development) still advances.
		opts.tickPath = "/v1/tick"
		if *mode == "shard" {
			opts.tickPath = "/v1/shard/tick"
		}
	}

	switch *mode {
	case "edge", "shard":
	case "router":
		// No streams, no scheduler — just the federation front door over
		// the shard map.
		if *shardMapFile == "" {
			fatal(errors.New("-mode=router requires -shard-map"))
		}
		m, err := shard.ParseFile(*shardMapFile)
		if err != nil {
			fatal(err)
		}
		rt, err := router.New(router.Config{
			Map:            m,
			DefaultChannel: *defaultChan,
			Logger:         logger,
		})
		if err != nil {
			fatal(err)
		}
		logger.Info("lpvsd router listening", "addr", *addr, "version", version,
			"epoch", m.Epoch(), "nodes", len(m.Nodes()), "default_channel", *defaultChan)
		if err := serve(logger, rt, opts); err != nil {
			fatal(err)
		}
		return
	default:
		fatal(fmt.Errorf("unknown -mode %q (edge, shard, router)", *mode))
	}

	genre, err := parseGenre(*genreName)
	if err != nil {
		fatal(err)
	}
	chunks := int(*slotSec/video.DefaultChunkSeconds) * 12 // two hours of content, wrapped
	stream, err := video.Generate(stats.NewRNG(*seed), video.DefaultGenConfig("live", genre, chunks))
	if err != nil {
		fatal(err)
	}
	// Extra channels share the genre and slot geometry; each gets its
	// own derived seed so content differs across channels but stays
	// reproducible across daemons started with the same flags.
	var extras []*video.Video
	if *channels != "" {
		for i, id := range strings.Split(*channels, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			v, err := video.Generate(stats.NewRNG(*seed+int64(i)+1), video.DefaultGenConfig(id, genre, chunks))
			if err != nil {
				fatal(err)
			}
			extras = append(extras, v)
		}
	}
	var smap *shard.Map
	if *shardMapFile != "" {
		if smap, err = shard.ParseFile(*shardMapFile); err != nil {
			fatal(err)
		}
	}
	srv, err := server.New(server.Config{
		Stream:           stream,
		ExtraStreams:     extras,
		ShardMode:        *mode == "shard",
		NodeID:           *nodeID,
		ShardMap:         smap,
		ServerStreams:    *capacity,
		Lambda:           *lambda,
		SlotSec:          *slotSec,
		Workers:          *workers,
		Logger:           logger,
		AuditDir:         *auditDir,
		TraceSample:      *traceSample,
		TraceSeed:        *traceSeed,
		SchedDeadline:    *schedDeadline,
		MaxInflight:      *maxInflight,
		MaxBatchRecords:  *maxBatch,
		VCLabelBudget:    *vcBudget,
		SLOTickLatency:   *sloLatency,
		SnapshotDir:      *snapshotDir,
		SnapshotInterval: *snapshotEvery,
		HistoryWindow:    *historyWindow,
		HistoryInterval:  *historyEvery,
		FlightDir:        *flightDir,
		FlightTriggers:   *flightTrig,
	})
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	opts.history = srv.History()
	if *snapshotDir != "" {
		opts.snapshot = srv.SaveSnapshot
		opts.snapshotEvery = *snapshotEvery
	}
	logger.Info("lpvsd listening",
		"addr", *addr, "version", version, "capacity", *capacity,
		"lambda", *lambda, "slot_sec", *slotSec, "workers", *workers,
		"pprof", *enablePprof, "audit_dir", *auditDir,
		"snapshot_dir", *snapshotDir, "flight_dir", *flightDir,
		"history_window", *historyWindow,
		"trace_sample", *traceSample,
		"sched_deadline", *schedDeadline, "max_inflight", *maxInflight,
		"max_batch_records", *maxBatch)
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

	sloInterval  time.Duration
	runtimeEvery time.Duration // 0 = no runtime self-telemetry

	// Edge-daemon extras, nil on a router: the metric-history sampler
	// (DESIGN.md §15) and durable-state snapshots (§14), written every
	// snapshotEvery (0 = never) and once more after the drain.
	history       *history.Store
	snapshot      func() error
	snapshotEvery time.Duration
}

// serve is the one process loop of every personality: it mounts pprof,
// starts the background loops and the slot ticker, serves p's handler
// until SIGINT/SIGTERM, then drains in order — readiness off, in-flight
// requests, background loops, final snapshot.
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

	// Fleet-health background loops (DESIGN.md §13): runtime
	// self-telemetry into /metrics, the SLO burn-rate evaluator, and the
	// metric-history sampler (§15). They run on their own context, not
	// the signal context, so the shutdown goroutine can stop them and
	// WAIT for them before the final snapshot — the snapshot and final
	// flight bundle must never race background writers.
	bgCtx, bgStop := context.WithCancel(context.Background())
	defer bgStop()
	var bg sync.WaitGroup
	background := func(run func()) {
		bg.Add(1)
		go func() {
			defer bg.Done()
			run()
		}()
	}
	if o.runtimeEvery > 0 {
		background(func() { runtimecollector.New(p.Registry()).Run(bgCtx, o.runtimeEvery) })
	}
	background(func() { p.SLO().Run(bgCtx.Done(), o.sloInterval) })
	if o.history != nil {
		background(func() { o.history.Run(bgCtx.Done()) })
	}

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
		// Stop the SLO evaluator, runtime collector, and history
		// sampler — and wait for them — before the final snapshot, so
		// nothing mutates state while it is being written.
		bgStop()
		bg.Wait()
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

func parseGenre(name string) (video.Genre, error) {
	for _, g := range video.AllGenres() {
		if g.String() == name {
			return g, nil
		}
	}
	return 0, fmt.Errorf("unknown genre %q", name)
}

// normalizeAddr returns addr unchanged. Nothing in the daemon calls it
// any more (tickURL derives the ticker's target); it stays because
// TestNormalizeAddr pins its behaviour.
func normalizeAddr(addr string) string {
	if addr != "" && addr[0] == ':' {
		return addr
	}
	return addr
}
