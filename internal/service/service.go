package service

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"time"

	"delaycalc/internal/analysis"
)

// Defaults applied by NewServer when the corresponding Config field is zero.
const (
	DefaultRequestTimeout = 10 * time.Second
	DefaultAnalyzeTimeout = 5 * time.Second
	DefaultMaxInFlight    = 64
	DefaultMaxBodyBytes   = 1 << 20 // 1 MiB
	DefaultCacheSize      = 256
)

// Config parameterizes a Server.
type Config struct {
	// Registry holds the tenant networks the server routes
	// /v2/networks/{netid}/... requests to. When nil, the server builds a
	// single-network registry from State and Cache under DefaultNetworkID —
	// the single-tenant configuration.
	Registry *Registry
	// State holds the live admission fabric of the default network.
	// Required when Registry is nil; must be unset otherwise.
	State *State
	// Cache holds the default network's analyze results;
	// NewCache(DefaultCacheSize) when nil. Only read when Registry is nil.
	Cache *Cache
	// Logger receives structured request logs; a no-op logger when nil.
	Logger *slog.Logger
	// RequestTimeout bounds each request's context — the HARD deadline:
	// once it passes, the request is shed with a 503 envelope and a
	// Retry-After header, and its in-flight analysis is cancelled.
	RequestTimeout time.Duration
	// AnalyzeTimeout is the SOFT analysis budget: an analysis that
	// outlives it stops searching and finishes on the always-sound
	// decomposed ceilings it already holds, labeled degraded:true with the
	// bound source. Zero applies DefaultAnalyzeTimeout; negative disables
	// degradation (the analyzer runs until the hard deadline).
	// Overridable per-request via timeout_seconds.
	AnalyzeTimeout time.Duration
	// MaxInFlight bounds the number of concurrently running analyses
	// across the analyze, admit, release and batch endpoints of EVERY
	// network; excess
	// requests queue until a slot frees or their hard deadline sheds them.
	// Zero applies DefaultMaxInFlight; negative disables the bound.
	MaxInFlight int
	// MaxBodyBytes bounds request body sizes; oversized bodies get 413.
	MaxBodyBytes int64
}

// Server is the delayd HTTP API: admission control over one or more
// tenant fabrics plus stateless analysis with caching, instrumented with
// per-network Metrics. Every endpoint lives under /v2/: network-scoped
// ones under /v2/networks/{netid}/, plus the global health and network
// listing routes.
type Server struct {
	reg        *Registry
	log        *slog.Logger
	timeout    time.Duration
	softBudget time.Duration // <= 0: degradation disabled
	sem        chan struct{} // analysis slots; nil: unbounded
	pick       func(string) (analysis.Analyzer, error)
	maxBody    int64
	mux        *http.ServeMux
}

// netHandler is an endpoint handler bound to one resolved tenant network.
type netHandler func(nw *Network, w http.ResponseWriter, r *http.Request)

// Endpoint labels. Metrics are per-network instances, so the label keeps
// the {netid} placeholder literal: cardinality stays independent of the
// number of tenants.
const (
	epAdmit   = "POST /v2/networks/{netid}/connections"
	epRemove  = "DELETE /v2/networks/{netid}/connections/{name}"
	epBatch   = "POST /v2/networks/{netid}/batch"
	epAnalyze = "POST /v2/networks/{netid}/analyze"
)

// route is one row of the Server's registration table.
type route struct {
	method  string
	suffix  string // path under /v2/networks/{netid}; for global rows, the absolute path
	global  bool   // not network-scoped (healthz, the networks listing)
	handler netHandler
}

// routes is the single registration table for every endpoint.
func (s *Server) routes() []route {
	return []route{
		{method: "POST", suffix: "/connections", handler: s.handleAdmit},
		{method: "GET", suffix: "/connections", handler: s.handleList},
		{method: "DELETE", suffix: "/connections/{name}", handler: s.handleRemove},
		{method: "POST", suffix: "/batch", handler: s.handleBatch},
		{method: "GET", suffix: "/stats", handler: s.handleStats},
		{method: "POST", suffix: "/analyze", handler: s.handleAnalyze},
		{method: "GET", suffix: "/metrics", handler: s.handleMetrics},
		{method: "GET", suffix: "/v2/healthz", global: true, handler: s.handleHealthz},
		{method: "GET", suffix: "/v2/networks", global: true, handler: s.handleNetworks},
	}
}

// NewServer assembles the API around a network registry (or, for the
// single-tenant configuration, a bare admission state).
func NewServer(cfg Config) (*Server, error) {
	s := &Server{
		reg:        cfg.Registry,
		log:        cfg.Logger,
		timeout:    cfg.RequestTimeout,
		softBudget: cfg.AnalyzeTimeout,
		pick:       PickAnalyzer,
		maxBody:    cfg.MaxBodyBytes,
	}
	if s.reg == nil {
		if cfg.State == nil {
			return nil, fmt.Errorf("service: Config.State is required when no Registry is given")
		}
		s.reg = NewRegistry()
		if _, err := s.reg.Add(DefaultNetworkID, cfg.State, cfg.Cache); err != nil {
			return nil, err
		}
	} else {
		if cfg.State != nil || cfg.Cache != nil {
			return nil, fmt.Errorf("service: set either Config.Registry or Config.State/Cache, not both")
		}
		if s.reg.Len() == 0 {
			return nil, fmt.Errorf("service: Config.Registry has no networks")
		}
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if s.timeout <= 0 {
		s.timeout = DefaultRequestTimeout
	}
	if s.softBudget == 0 {
		s.softBudget = DefaultAnalyzeTimeout
	}
	maxInFlight := cfg.MaxInFlight
	if maxInFlight == 0 {
		maxInFlight = DefaultMaxInFlight
	}
	if maxInFlight > 0 {
		s.sem = make(chan struct{}, maxInFlight)
	}
	if s.maxBody <= 0 {
		s.maxBody = DefaultMaxBodyBytes
	}

	s.mux = http.NewServeMux()
	// allow collects, per path, the method set: the input of the uniform
	// 405 handlers registered below.
	allow := make(map[string][]string)
	for _, rt := range s.routes() {
		path, h := "/v2/networks/{netid}"+rt.suffix, s.scoped(rt.handler)
		if rt.global {
			path, h = rt.suffix, s.onDefault(rt.handler)
		}
		s.mux.HandleFunc(rt.method+" "+path, s.instrument(rt.method+" "+path, h))
		allow[path] = append(allow[path], rt.method)
	}
	// Every known path answers unsupported methods with the same 405
	// envelope and an Allow header, instead of the mux's plain-text default.
	for path, methods := range allow {
		sort.Strings(methods)
		s.mux.HandleFunc(path, methodNotAllowed(methods))
	}
	// Unknown paths answer the JSON 404 envelope.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, CodeNotFound,
			fmt.Sprintf("no such endpoint: %s %s", r.Method, r.URL.Path))
	})
	return s, nil
}

// scoped resolves {netid} against the registry before invoking the
// handler; unknown ids answer the 404 envelope with a stable code.
func (s *Server) scoped(h netHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("netid")
		nw, ok := s.reg.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, CodeUnknownNetwork,
				fmt.Sprintf("no network named %q", id))
			return
		}
		h(nw, w, r)
	}
}

// onDefault binds a global route's handler to the default network.
func (s *Server) onDefault(h netHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		h(s.reg.Default(), w, r)
	}
}

// methodNotAllowed writes the uniform 405 envelope with an Allow header;
// registered as the method-less pattern of every known path so the mux's
// plain-text fallback never reaches clients.
func methodNotAllowed(methods []string) http.HandlerFunc {
	allow := strings.Join(methods, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed (allow: %s)", r.Method, allow))
	}
}

// ServeHTTP dispatches to the instrumented mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Registry exposes the tenant networks.
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the default network's accumulator (used by tests).
func (s *Server) Metrics() *Metrics { return s.reg.Default().metrics }

// Cache exposes the default network's analyze cache (used by tests and
// benchmarks).
func (s *Server) Cache() *Cache { return s.reg.Default().cache }

// State exposes the default network's admission state.
func (s *Server) State() *State { return s.reg.Default().state }
