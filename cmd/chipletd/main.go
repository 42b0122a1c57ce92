// Command chipletd serves the paper's models over HTTP/JSON: thermal
// solves, organization searches, cost queries, and server TCO
// elaborations, with a content-addressed result cache, a bounded worker
// pool, request-scoped span traces, and Prometheus metrics. See
// internal/serve for the endpoint reference.
//
// Usage:
//
//	chipletd [-addr :8080] [-workers N]
//	         [-queue N] [-cache N] [-timeout 60s]
//	         [-grid-max 128] [-spatial]
//	         [-tco-node 7nm]
//	         [-config file.json]
//	         [-log-format text|json] [-log-level info] [-pprof]
//	         [-trace-ring 64] [-slow-trace 2s]
//	         [-otlp-endpoint http://host:4318] [-trace-sample 1.0]
//	         [-audit-ring 256]
//	         [-peers http://h2:8080,http://h3:8080] [-self http://h1:8080]
//	         [-peer-timeout 500ms]
//
// -peers and -self enable the sharding layer: nodes rendezvous-hash engine
// physics fingerprints over the (identical) fleet list, and a non-owner
// pulls memoized simulation results from the owner over GET /v1/memo
// before simulating locally. See internal/serve/shard.go.
//
// Flags override the optional "server" section of -config. Logs are
// structured (log/slog); -log-format json emits one JSON object per line,
// including a "listening" record carrying the bound address so ":0" runs
// are scriptable. SIGINT/SIGTERM triggers a graceful drain: the listener
// closes and in-flight solves run to completion before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chiplet25d/internal/config"
	"chiplet25d/internal/cost"
	"chiplet25d/internal/serve"
)

// buildLogger assembles the daemon logger from the format/level settings.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lv = slog.LevelInfo
	case "debug":
		lv = slog.LevelDebug
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", level)
	}
	ho := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, ho)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, ho)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
}

func main() {
	var (
		addr       = flag.String("addr", "", "listen address (default :8080)")
		workers    = flag.Int("workers", 0, "max concurrent solves (default GOMAXPROCS)")
		queue      = flag.Int("queue", 0, "admission queue depth; beyond it requests get 503 (default 64)")
		cacheCap   = flag.Int("cache", 0, "result cache capacity in entries (default 512)")
		timeout    = flag.Duration("timeout", 0, "per-request deadline (default 60s)")
		gridMax    = flag.Int("grid-max", 0, "largest thermal grid a request may ask for (default 128)")
		tcoNode    = flag.String("tco-node", "", "default tech node for /v1/cost/tco requests that do not set tech_node (45nm, 28nm, 16nm, 7nm)")
		spatial    = flag.Bool("spatial", false, "default org searches to the spatial surrogate tier (requests may still opt out)")
		configPath = flag.String("config", "", "JSON config file with an optional \"server\" section")
		logFormat  = flag.String("log-format", "", "log encoding: text or json (default text)")
		logLevel   = flag.String("log-level", "", "minimum log level: debug, info, warn, error (default info)")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		traceRing  = flag.Int("trace-ring", 0, "flight-recorder capacity in traces (default 64)")
		slowTrace  = flag.Duration("slow-trace", 0, "also retain traces at least this slow (default 2s)")
		otlp       = flag.String("otlp-endpoint", "", "OTLP/HTTP collector base URL; empty disables export")
		traceRate  = flag.Float64("trace-sample", 0, "tail-sampling rate for unremarkable traces; slow/error traces always export (default 1.0, negative = slow/error only)")
		auditRing  = flag.Int("audit-ring", 0, "search audit-trail capacity in events (default 256, negative disables)")
		peers      = flag.String("peers", "", "comma-separated base URLs of the other chipletd nodes (enables sharding; requires -self)")
		selfURL    = flag.String("self", "", "this node's own base URL as peers address it (required with -peers)")
		peerTO     = flag.Duration("peer-timeout", 0, "memo peer-fetch deadline; misses fall back to local compute (default 500ms)")
	)
	flag.Parse()

	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "chipletd: %v\n", err)
		os.Exit(1)
	}

	opts := serve.DefaultOptions()
	format, level := "", ""
	if *configPath != "" {
		sc, err := config.LoadServerFile(*configPath)
		if err != nil {
			fatal(err)
		}
		if sc.Addr != "" {
			opts.Addr = sc.Addr
		}
		if sc.Workers != nil {
			opts.Workers = *sc.Workers
		}
		if sc.QueueDepth != nil {
			opts.QueueDepth = *sc.QueueDepth
		}
		if sc.CacheCapacity != nil {
			opts.CacheCapacity = *sc.CacheCapacity
		}
		if sc.RequestTimeoutSec != nil {
			opts.RequestTimeout = time.Duration(*sc.RequestTimeoutSec * float64(time.Second))
		}
		if sc.Pprof != nil {
			opts.EnablePprof = *sc.Pprof
		}
		if sc.TraceRing != nil {
			opts.TraceRingSize = *sc.TraceRing
		}
		if sc.SlowTraceMS != nil {
			opts.SlowTraceThreshold = time.Duration(*sc.SlowTraceMS * float64(time.Millisecond))
		}
		if sc.OTLPEndpoint != "" {
			opts.OTLPEndpoint = sc.OTLPEndpoint
		}
		if sc.TraceSample != nil {
			opts.TraceSampleRate = *sc.TraceSample
		}
		if sc.AuditRing != nil {
			opts.AuditRingSize = *sc.AuditRing
		}
		if len(sc.Peers) > 0 {
			opts.Peers = sc.Peers
		}
		if sc.SelfURL != "" {
			opts.SelfURL = sc.SelfURL
		}
		if sc.PeerTimeoutMS != nil {
			opts.PeerTimeout = time.Duration(*sc.PeerTimeoutMS * float64(time.Millisecond))
		}
		format, level = sc.LogFormat, sc.LogLevel
	}
	if *addr != "" {
		opts.Addr = *addr
	}
	if *workers > 0 {
		opts.Workers = *workers
	}
	if *queue > 0 {
		opts.QueueDepth = *queue
	}
	if *cacheCap > 0 {
		opts.CacheCapacity = *cacheCap
	}
	if *timeout > 0 {
		opts.RequestTimeout = *timeout
	}
	if *gridMax > 0 {
		opts.MaxGridN = *gridMax
	}
	if *spatial {
		opts.SpatialSurrogate = true
	}
	if *tcoNode != "" {
		if _, err := cost.NodeByName(*tcoNode); err != nil {
			fatal(err)
		}
		opts.TCONode = *tcoNode
	}
	if *pprofOn {
		opts.EnablePprof = true
	}
	if *traceRing > 0 {
		opts.TraceRingSize = *traceRing
	}
	if *slowTrace > 0 {
		opts.SlowTraceThreshold = *slowTrace
	}
	if *otlp != "" {
		opts.OTLPEndpoint = *otlp
	}
	if *traceRate != 0 {
		opts.TraceSampleRate = *traceRate
	}
	if *auditRing != 0 {
		opts.AuditRingSize = *auditRing
	}
	if *peers != "" {
		var list []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		opts.Peers = list
	}
	if *selfURL != "" {
		opts.SelfURL = *selfURL
	}
	if *peerTO > 0 {
		opts.PeerTimeout = *peerTO
	}
	if len(opts.Peers) > 0 && opts.SelfURL == "" {
		fatal(fmt.Errorf("-peers requires -self (this node's own base URL)"))
	}
	if *logFormat != "" {
		format = *logFormat
	}
	if *logLevel != "" {
		level = *logLevel
	}

	logger, err := buildLogger(format, level)
	if err != nil {
		fatal(err)
	}
	// Components that log without a request context (and anything else in
	// the process using slog) share the daemon handler.
	slog.SetDefault(logger)
	opts.Logger = logger

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := serve.New(opts)
	if err := s.Run(ctx); err != nil {
		logger.Error("chipletd exiting", "error", err.Error())
		os.Exit(1)
	}
	logger.Info("chipletd: drained, bye")
}
