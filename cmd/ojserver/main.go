// Command ojserver is the long-running concurrent query server: many
// TCP sessions speaking the ojshell command syntax (one JSON response
// line per command) over one shared catalog, plan cache and admission
// controller.
//
//	$ ojserver -addr 127.0.0.1:7432 -metrics-addr 127.0.0.1:9090 \
//	    -max-concurrent 8 -pool 64MB -query-mem 8MB
//	$ printf 'table R(a) = (1), (2)\ntable S(a) = (2), (3)\nquery R -[R.a = S.a] S\nquit\n' | nc 127.0.0.1 7432
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"strconv"

	"freejoin/internal/chaos"
	"freejoin/internal/parse"
	"freejoin/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7432", "TCP address for the query protocol")
		metricsAddr = flag.String("metrics-addr", "", "HTTP /metrics, /debug/queries, /healthz address (off when empty)")
		maxConc     = flag.Int("max-concurrent", server.DefaultMaxConcurrent, "concurrent query slots")
		queueDepth  = flag.Int("queue-depth", server.DefaultQueueDepth, "admission wait-queue bound (negative disables waiting)")
		pool        = flag.String("pool", "", "process-wide memory pool, e.g. 64MB (empty = unlimited)")
		spillPool   = flag.String("spill-pool", "", "process-wide spill pool, e.g. 256MB (empty = unlimited)")
		queryMem    = flag.String("query-mem", "", "default per-query memory grant, e.g. 8MB (empty = ungoverned)")
		querySpill  = flag.String("query-spill", "", "per-query spill grant when spill is on (empty = ungoverned)")
		timeout     = flag.Duration("timeout", 0, "default per-query deadline, admission wait included (0 = none)")
		planCache   = flag.Int("plan-cache", 0, "shared plan-cache capacity (0 = default, negative = off)")
		spill       = flag.Bool("spill", false, "default spill-to-disk mode for new sessions")
		spillDir    = flag.String("spill-dir", "", "spill run-file directory (empty = OS temp dir)")
		strategy    = flag.String("strategy", "", "default planner strategy: dp, yannakakis or auto (empty = dp)")
		batchSize   = flag.String("batch-size", "", "rows per execution batch: N or default (empty = default)")
		restore     = flag.String("restore", "", "catalog snapshot (.fjdb) to restore at startup")

		idleTimeout  = flag.Duration("idle-timeout", 0, "disconnect idle sessions (0 = default 5m, negative = off)")
		writeTimeout = flag.Duration("write-timeout", 0, "per-response write deadline (0 = default 30s, negative = off)")
		maxLine      = flag.String("max-line", "", "longest accepted protocol line, e.g. 1MB (empty = default)")
		shedWait     = flag.Duration("shed-wait", 0, "shed load when smoothed queue wait exceeds this (0 = off)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain bound on SIGTERM")

		chaosSeed = flag.Int64("chaos-seed", 0, "dev mode: seed for network fault injection (needs -chaos-rate)")
		chaosRate = flag.Float64("chaos-rate", 0, "dev mode: per-I/O fault probability in [0,1] (0 = off)")

		pprofOn     = flag.Bool("pprof", false, "mount /debug/pprof on the metrics address (needs -metrics-addr)")
		runtimeSamp = flag.Duration("runtime-metrics", 0, "background runtime/metrics sampling period (0 = scrape-time only)")
		slowQuery   = flag.Duration("slow-query", 0, "slow-query threshold (0 = off)")
		slowLog     = flag.String("slow-query-log", "", "slow-query JSONL file, size-capped with rotation (empty = off)")
		slowLogMax  = flag.String("slow-query-log-max", "", "slow-query log size cap before rotation, e.g. 64MB (empty = default)")
	)
	flag.Parse()

	cfg := server.Config{
		Addr:          *addr,
		MetricsAddr:   *metricsAddr,
		MaxConcurrent: *maxConc,
		QueueDepth:    *queueDepth,
		Timeout:       *timeout,
		PlanCache:     *planCache,
		Spill:         *spill,
		SpillDir:      *spillDir,
		Strategy:      *strategy,
		SnapshotPath:  *restore,
		IdleTimeout:   *idleTimeout,
		WriteTimeout:  *writeTimeout,
		ShedWait:      *shedWait,
		Pprof:         *pprofOn,
		RuntimeSample: *runtimeSamp,
		SlowQuery:     *slowQuery,
		SlowQueryLog:  *slowLog,
	}
	switch cfg.Strategy {
	case "", "dp", "yannakakis", "auto":
	default:
		fmt.Fprintf(os.Stderr, "ojserver: unknown -strategy %q (want dp, yannakakis or auto)\n", cfg.Strategy)
		os.Exit(2)
	}
	if *batchSize != "" && *batchSize != "default" {
		n, err := strconv.Atoi(*batchSize)
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "ojserver: bad -batch-size %q (want N or default)\n", *batchSize)
			os.Exit(2)
		}
		cfg.BatchSize = n
	}
	if *slowLogMax != "" {
		n, err := parse.Bytes(*slowLogMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ojserver:", err)
			os.Exit(2)
		}
		cfg.SlowQueryLogMaxBytes = n
	}
	if *maxLine != "" {
		n, err := parse.Bytes(*maxLine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ojserver:", err)
			os.Exit(2)
		}
		cfg.MaxLineBytes = int(n)
	}
	if *chaosRate > 0 {
		// Fault injection is a dev/test mode: every accepted connection
		// suffers seeded, replayable network faults.
		cfg.Chaos = &chaos.Config{Seed: *chaosSeed, Rate: *chaosRate}
		fmt.Fprintf(os.Stderr, "ojserver: CHAOS MODE: injecting faults at rate %g (seed %d)\n",
			*chaosRate, *chaosSeed)
	}
	for _, f := range []struct {
		val string
		dst *int64
	}{
		{*pool, &cfg.PoolBytes},
		{*spillPool, &cfg.SpillPoolBytes},
		{*queryMem, &cfg.QueryMemBytes},
		{*querySpill, &cfg.QuerySpillBytes},
	} {
		if f.val == "" {
			continue
		}
		n, err := parse.Bytes(f.val)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ojserver:", err)
			os.Exit(2)
		}
		*f.dst = n
	}

	srv, err := server.Start(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ojserver:", err)
		os.Exit(1)
	}
	if n := srv.SweptSpillFiles(); n > 0 {
		fmt.Fprintf(os.Stderr, "ojserver: swept %d stale spill file(s)\n", n)
	}
	fmt.Printf("ojserver: serving on %s", srv.Addr())
	if srv.MetricsAddr() != "" {
		fmt.Printf(", metrics on %s", srv.MetricsAddr())
	}
	fmt.Println()

	// Block until SIGINT/SIGTERM, then drain gracefully: stop accepting,
	// reject new queries with the typed "draining" code, finish in-flight
	// work, then exit. The drain timeout bounds the wait; on expiry the
	// remainder is cut off hard.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "ojserver: draining")
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ojserver: drain:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "ojserver: drained")
}
