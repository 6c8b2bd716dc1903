package server

import (
	"cmp"
	"os"
	"sync/atomic"
	"time"

	"freejoin/internal/chaos"
	"freejoin/internal/exec/spill"
	"freejoin/internal/obs"
	"freejoin/internal/plancache"
	"freejoin/internal/storage"
)

// Connection-hygiene defaults; Config zero values resolve to these, and
// negative values disable the bound entirely.
const (
	// DefaultMaxLineBytes bounds one protocol line (command or value
	// payload). Longer lines get a typed protocol_error instead of
	// unbounded buffering.
	DefaultMaxLineBytes = 1 << 20
	// DefaultIdleTimeout disconnects sessions that send nothing for this
	// long (while no command is executing).
	DefaultIdleTimeout = 5 * time.Minute
	// DefaultWriteTimeout bounds one response write; a client that stops
	// reading cannot wedge a session goroutine forever.
	DefaultWriteTimeout = 30 * time.Second
	// DefaultSlowLogMaxBytes caps the slow-query JSONL file before it
	// rotates to <path>.1 (at most double this on disk).
	DefaultSlowLogMaxBytes = int64(64 << 20)
)

// Config parameterizes the server: the listen addresses, the admission
// controller sizing, and the per-query defaults sessions start from
// (sessions may lower their own limits with "set", never exceed the
// pools).
type Config struct {
	Addr        string // TCP address for the query protocol ("" → 127.0.0.1:0)
	MetricsAddr string // optional HTTP /metrics,/debug/queries,/healthz address

	MaxConcurrent  int   // concurrent queries (0 → DefaultMaxConcurrent)
	QueueDepth     int   // admission wait-queue bound (0 → DefaultQueueDepth, <0 → none)
	PoolBytes      int64 // process-wide memory pool (0 → unlimited)
	SpillPoolBytes int64 // process-wide spill pool (0 → unlimited)

	QueryMemBytes   int64         // default per-query memory grant (0 → ungoverned)
	QuerySpillBytes int64         // per-query spill grant when spill is on (0 → ungoverned)
	Timeout         time.Duration // default per-query deadline, admission wait included (0 → none)

	PlanCache int    // shared plan-cache capacity (0 → DefaultCapacity, <0 → disabled)
	Spill     bool   // default spill-to-disk mode for new sessions
	SpillDir  string // spill run-file directory ("" → OS temp dir)
	Strategy  string // default planner strategy for new sessions ("" → dp)

	// BatchSize is the default rows per execution batch for new
	// sessions: 0 runs with exec.DefaultBatchSize, a positive value
	// sets it.
	BatchSize int

	SnapshotPath string // optional .fjdb catalog snapshot to restore at startup

	// Connection hygiene (0 → the defaults above, <0 → disabled).
	MaxLineBytes int           // longest accepted protocol line
	IdleTimeout  time.Duration // disconnect idle sessions after this long
	WriteTimeout time.Duration // per-response write deadline

	// ShedWait enables queue-wait-latency load shedding (see
	// AdmissionConfig.ShedWait). 0 disables.
	ShedWait time.Duration

	// Pprof mounts net/http/pprof on the monitoring server (requires
	// MetricsAddr). Off by default: profiling endpoints expose stacks.
	Pprof bool
	// RuntimeSample, when > 0, runs a background runtime/metrics sampler
	// at this period for the monitoring server's lifetime (scrape-time
	// sampling happens regardless).
	RuntimeSample time.Duration

	// SlowQuery sets the slow-query threshold (0 → off); queries at or
	// over it are recorded in the slow-query log.
	SlowQuery time.Duration
	// SlowQueryLog, when non-empty, appends slow-query records as JSON
	// lines to this file, rotated to <path>.1 at SlowQueryLogMaxBytes
	// (DefaultSlowLogMaxBytes when 0) so a long soak cannot fill the disk.
	SlowQueryLog         string
	SlowQueryLogMaxBytes int64

	// Chaos, when non-nil and enabled, wraps the query listener in the
	// fault-injection layer — a dev/test mode, never for production.
	Chaos *chaos.Config
}

func (c Config) maxLineBytes() int {
	switch {
	case c.MaxLineBytes < 0:
		return 0 // unbounded
	case c.MaxLineBytes == 0:
		return DefaultMaxLineBytes
	default:
		return c.MaxLineBytes
	}
}

func (c Config) idleTimeout() time.Duration {
	switch {
	case c.IdleTimeout < 0:
		return 0 // disabled
	case c.IdleTimeout == 0:
		return DefaultIdleTimeout
	default:
		return c.IdleTimeout
	}
}

func (c Config) writeTimeout() time.Duration {
	switch {
	case c.WriteTimeout < 0:
		return 0 // disabled
	case c.WriteTimeout == 0:
		return DefaultWriteTimeout
	default:
		return c.WriteTimeout
	}
}

// Core is the shared-everything state all sessions execute over: one
// catalog (one stats epoch), one plan cache, one tracer ring, one
// admission controller. Sessions are cheap; the core is the server.
type Core struct {
	cfg    Config
	cat    *storage.Catalog
	plans  *plancache.Cache
	tracer *obs.Tracer
	adm    *Admission

	// draining flips once at the start of a graceful shutdown: sessions
	// still connected get typed "draining" rejections for new queries
	// while in-flight ones run to completion.
	draining atomic.Bool
}

// NewCore builds the shared core for cfg. When cfg.SnapshotPath names a
// catalog snapshot it is restored into the fresh catalog.
func NewCore(cfg Config) (*Core, error) {
	cat := storage.NewCatalog()
	if cfg.SnapshotPath != "" {
		restored, err := storage.LoadCatalogFile(cfg.SnapshotPath)
		if err != nil {
			return nil, err
		}
		cat = restored
	}
	var plans *plancache.Cache
	switch {
	case cfg.PlanCache > 0:
		plans = plancache.New(cfg.PlanCache)
	case cfg.PlanCache == 0:
		plans = plancache.New(plancache.DefaultCapacity)
	}
	core := &Core{
		cfg:    cfg,
		cat:    cat,
		plans:  plans,
		tracer: obs.NewTracer(),
		adm: NewAdmission(AdmissionConfig{
			MaxConcurrent:  cfg.MaxConcurrent,
			QueueDepth:     cfg.QueueDepth,
			PoolBytes:      cfg.PoolBytes,
			SpillPoolBytes: cfg.SpillPoolBytes,
			ShedWait:       cfg.ShedWait,
		}),
	}
	if cfg.SlowQuery > 0 {
		core.tracer.Slow().SetThreshold(cfg.SlowQuery)
	}
	if cfg.SlowQueryLog != "" {
		maxBytes := cfg.SlowQueryLogMaxBytes
		if maxBytes == 0 {
			maxBytes = DefaultSlowLogMaxBytes
		}
		if err := core.tracer.Slow().SetJSONFile(cfg.SlowQueryLog, maxBytes); err != nil {
			return nil, err
		}
	}
	return core, nil
}

// SweepSpill removes the stale spill run files a process killed
// mid-query left in the configured spill directory (the OS temp dir by
// default), reclaiming the disk before this process writes its own, and
// returns how many it removed.
func (c *Core) SweepSpill() int {
	n, _ := spill.SweepStale(cmp.Or(c.cfg.SpillDir, os.TempDir()), 0)
	return n
}

// StartMonitor starts the monitoring HTTP server the configuration asks
// for (/metrics, /debug/queries, /healthz, and /debug/pprof with Pprof)
// over the core's tracer and health; it returns nil when MetricsAddr is
// empty.
func (c *Core) StartMonitor() (*obs.Server, error) {
	if c.cfg.MetricsAddr == "" {
		return nil, nil
	}
	return obs.StartServerOpts(c.cfg.MetricsAddr, obs.ServerOptions{
		Tracer:       c.tracer,
		Health:       c.Health,
		Pprof:        c.cfg.Pprof,
		RuntimeEvery: c.cfg.RuntimeSample,
	})
}

// Catalog returns the shared catalog (safe for concurrent use).
func (c *Core) Catalog() *storage.Catalog { return c.cat }

// Plans returns the shared plan cache (nil when disabled).
func (c *Core) Plans() *plancache.Cache { return c.plans }

// Tracer returns the server's query tracer.
func (c *Core) Tracer() *obs.Tracer { return c.tracer }

// Admission returns the admission controller.
func (c *Core) Admission() *Admission { return c.adm }

// StartDraining flips the core into drain mode; new queries reject with
// a typed "draining" code. Returns false if already draining.
func (c *Core) StartDraining() bool { return !c.draining.Swap(true) }

// Draining reports whether the core is shutting down gracefully.
func (c *Core) Draining() bool { return c.draining.Load() }

// Health summarizes the core for /healthz: "draining" during graceful
// shutdown, "degraded" while the load shedder is rejecting new work,
// "ok" otherwise.
func (c *Core) Health() string {
	switch {
	case c.draining.Load():
		return "draining"
	case c.adm.Shedding():
		return "degraded"
	default:
		return "ok"
	}
}
