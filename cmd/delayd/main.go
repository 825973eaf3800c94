// Command delayd is the long-running admission-control and delay-analysis
// daemon. It holds a live fabric (from a netspec file or the paper's
// tandem builder), serves concurrent admission tests against it, and runs
// stateless analyses with an LRU result cache — the online application of
// the paper's tighter FIFO delay analysis.
//
// Usage:
//
//	delayd [-addr :8080] [-algo integrated] (-spec net.json | -tandem 4 [-load 0.5])
//	       [-shards 1] [-network id=spec.json ...]
//	       [-cache 256] [-timeout 10s] [-analyze-timeout 5s] [-max-inflight 64]
//	       [-max-body 1048576] [-shutdown-grace 10s] [-pprof]
//
// The daemon serves one or more independent admission fabrics ("networks").
// -spec/-tandem define the default network; each repeatable -network flag
// registers an extra tenant with its own fabric, engine, cache, and
// metrics. -shards partitions every network's engine by independent
// subnetwork so disjoint workloads commit without contending.
//
// Endpoints are network-scoped under /v2 (see docs/SERVICE.md for the full
// reference; the /v1 and unprefixed pre-versioning spellings are retired
// and answer 404):
//
//	POST   /v2/networks/{id}/connections        test-and-admit a connection (dry_run supported)
//	POST   /v2/networks/{id}/batch              run an ordered mix of admit and release operations
//	GET    /v2/networks/{id}/connections        list the admitted set (limit/cursor paging, server= filter)
//	DELETE /v2/networks/{id}/connections/{name} release an admitted connection (reports the release mode)
//	GET    /v2/networks/{id}/stats              admission engine counters as stable JSON
//	POST   /v2/networks/{id}/analyze            run any analyzer over a posted netspec (cached)
//	GET    /v2/networks/{id}/metrics            counters, latency histograms, cache/fabric/engine gauges
//	GET    /v2/networks                         list registered networks
//	GET    /v2/healthz                          liveness probe (global)
//
// GET responses for connections, stats, and metrics answer from the latest
// immutable promoted snapshot (a lock-free replica read) and carry its
// version in the X-Snapshot-Version header.
//
// Admission tests run against immutable snapshots outside any lock; under
// every -algo each test re-analyzes only the candidate's interference
// closure and splices cached bounds for the rest — see docs/INCREMENTAL.md.
//
// Each request runs under two clocks: -timeout is the hard deadline (a
// request that reaches it is shed with 503 + Retry-After and its analysis
// is cancelled) and -analyze-timeout is the soft budget (an analysis that
// outlives it stops searching and finishes on the always-sound decomposed
// ceilings it already holds, labeled degraded:true). -max-inflight bounds concurrently running analyses;
// excess requests queue until a slot frees or their deadline sheds them.
//
// On SIGINT/SIGTERM the daemon stops accepting connections and drains
// in-flight requests for up to -shutdown-grace; if the grace expires,
// the remaining analyses are cancelled cooperatively before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	stdnet "net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"delaycalc/internal/admission"
	"delaycalc/internal/cliutil"
	"delaycalc/internal/service"
)

// networkFlags collects repeatable -network id=spec.json values.
type networkFlags []string

func (f *networkFlags) String() string { return strings.Join(*f, ",") }

func (f *networkFlags) Set(v string) error {
	if !strings.Contains(v, "=") {
		return fmt.Errorf("want id=spec.json, got %q", v)
	}
	*f = append(*f, v)
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		specPath = flag.String("spec", "", "netspec JSON file defining the fabric (and optional pre-admitted connections)")
		tandem   = flag.Int("tandem", 0, "build the paper's n-server tandem fabric instead of -spec")
		load     = flag.Float64("load", 0.5, "tandem builder load (only with -tandem)")
		algo     = flag.String("algo", "integrated", "admission-test analyzer (integrated, decomposed, servicecurve, gr, integratedsp)")
		cacheSz  = flag.Int("cache", service.DefaultCacheSize, "analyze-cache capacity (0 disables caching)")
		timeout  = flag.Duration("timeout", service.DefaultRequestTimeout, "per-request hard deadline (shed with 503 when passed)")
		analyzeT = flag.Duration("analyze-timeout", service.DefaultAnalyzeTimeout, "soft analysis budget: past it an analysis finishes on decomposed ceilings, degraded (negative disables degradation)")
		inflight = flag.Int("max-inflight", service.DefaultMaxInFlight, "maximum concurrently running analyses (negative disables the bound)")
		maxBody  = flag.Int64("max-body", service.DefaultMaxBodyBytes, "maximum request body bytes")
		grace    = flag.Duration("shutdown-grace", 10*time.Second, "drain window after SIGINT/SIGTERM")
		shards   = flag.Int("shards", 1, "engine shards per network (disjoint subnetworks commit independently)")
		profile  = flag.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/")
		verbose  = flag.Bool("v", false, "debug-level logging")
	)
	var extraNets networkFlags
	flag.Var(&extraNets, "network", "register an extra tenant network as id=spec.json (repeatable)")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if err := run(logger, *addr, *specPath, *tandem, *load, *algo, *cacheSz, *timeout, *analyzeT, *inflight, *maxBody, *grace, *shards, extraNets, *profile); err != nil {
		logger.Error("delayd exiting", "err", err)
		os.Exit(1)
	}
}

// buildState loads a fabric, constructs its sharded admission state,
// pre-admits the spec's deadline-bearing connections, and warms the
// analysis baselines. Every network — default or tenant — boots through
// this one path.
func buildState(logger *slog.Logger, id, specPath string, tandem int, load float64,
	algo string, shards int) (*service.State, int, error) {

	analyzer, err := service.PickAnalyzer(algo)
	if err != nil {
		return nil, 0, err
	}
	net, err := cliutil.LoadNetwork(specPath, tandem, load)
	if err != nil {
		return nil, 0, err
	}
	state, err := service.NewStateShards(net.Servers, analyzer, shards)
	if err != nil {
		return nil, 0, err
	}
	// Pre-admit deadline-bearing connections from the spec so a saved
	// fabric restarts with its admitted set; the tandem builder's
	// best-effort connections (no deadline) are load templates, not
	// admissions, and are skipped with a warning.
	// The whole set goes in as ONE envelope: one snapshot commit instead of
	// one (each copying the admitted set) per connection.
	if specPath != "" {
		var ops []admission.Op
		for _, conn := range net.Connections {
			if conn.Deadline <= 0 {
				logger.Warn("skipping spec connection without deadline", "network", id, "connection", conn.Name)
				continue
			}
			ops = append(ops, admission.Op{Kind: admission.OpAdmit, Candidate: conn})
		}
		br, err := state.ApplyBatch(context.Background(), ops)
		if err != nil {
			return nil, 0, fmt.Errorf("network %q: pre-admitting the spec's connections: %w", id, err)
		}
		for i, res := range br.Results {
			name := ops[i].Candidate.Name
			if res.Err != nil {
				return nil, 0, fmt.Errorf("network %q: pre-admitting %q: %w", id, name, res.Err)
			}
			if !res.Decision.Admitted {
				return nil, 0, fmt.Errorf("network %q: pre-admitting %q: rejected: %s", id, name, res.Decision.Reason)
			}
			logger.Info("pre-admitted", "network", id, "connection", name)
		}
	}
	// Warm the analysis baseline before serving so the first admission test
	// (and the first release) runs incrementally instead of paying the full
	// analysis inline.
	if err := state.WarmBaseline(); err != nil {
		return nil, 0, fmt.Errorf("network %q: warming analysis baseline: %w", id, err)
	}
	return state, len(net.Servers), nil
}

func run(logger *slog.Logger, addr, specPath string, tandem int, load float64, algo string,
	cacheSz int, timeout, analyzeTimeout time.Duration, maxInFlight int, maxBody int64,
	grace time.Duration, shards int, extraNets networkFlags, profile bool) error {

	reg := service.NewRegistry()
	state, nServers, err := buildState(logger, service.DefaultNetworkID, specPath, tandem, load, algo, shards)
	if err != nil {
		return err
	}
	if _, err := reg.Add(service.DefaultNetworkID, state, service.NewCache(cacheSz)); err != nil {
		return err
	}
	for _, nf := range extraNets {
		id, spec, _ := strings.Cut(nf, "=")
		st, n, err := buildState(logger, id, spec, 0, load, algo, shards)
		if err != nil {
			return err
		}
		if _, err := reg.Add(id, st, service.NewCache(cacheSz)); err != nil {
			return fmt.Errorf("-network %q: %w", nf, err)
		}
		logger.Info("registered network", "id", id, "spec", spec, "servers", n, "admitted", st.Count())
	}

	api, err := service.NewServer(service.Config{
		Registry:       reg,
		Logger:         logger,
		RequestTimeout: timeout,
		AnalyzeTimeout: analyzeTimeout,
		MaxInFlight:    maxInFlight,
		MaxBodyBytes:   maxBody,
	})
	if err != nil {
		return err
	}

	var handler http.Handler = api
	if profile {
		// Profiling endpoints carry no request deadline (a 30s CPU profile
		// outlives -timeout), so they mount beside the API handler rather
		// than behind its middleware. Do not enable on untrusted networks.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", api)
		handler = mux
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}

	// Every request context descends from baseCtx, so cancelAnalyses tears
	// through all in-flight analyses at once: their cooperative checkpoints
	// observe the cancellation and the handlers shed with 503.
	baseCtx, cancelAnalyses := context.WithCancel(context.Background())
	defer cancelAnalyses()

	srv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		BaseContext:       func(stdnet.Listener) context.Context { return baseCtx },
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("delayd listening", "addr", addr, "algo", algo,
			"incremental", state.Engine().Incremental(), "shards", state.Shards(),
			"networks", reg.Len(), "servers", nServers, "admitted", state.Count())
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down, draining in-flight requests", "grace", grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// The grace expired with requests still running: cancel their
		// analyses cooperatively and give the handlers a moment to shed.
		logger.Warn("drain window expired, cancelling in-flight analyses")
		cancelAnalyses()
		finalCtx, finalCancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer finalCancel()
		if err := srv.Shutdown(finalCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("delayd stopped cleanly")
	return nil
}
