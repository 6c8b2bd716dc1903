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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"freejoin/internal/chaos"
	"freejoin/internal/server"
)

func main() {
	cfg, drainTimeout, err := parseFlags(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set has printed the error and the usage
	}
	if cfg.Chaos != nil {
		fmt.Fprintf(os.Stderr, "ojserver: CHAOS MODE: injecting faults at rate %g (seed %d)\n",
			cfg.Chaos.Rate, cfg.Chaos.Seed)
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
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ojserver: drain:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "ojserver: drained")
}

// parseFlags parses the command line into the server configuration and
// the graceful-drain bound; errors and usage go to errOut. The
// process-level settings ojshell shares are registered by
// server.RegisterProcessFlags, and -strategy and -batch-size parse with
// the functions "set strategy" and "set batch_size" use.
func parseFlags(args []string, errOut io.Writer) (server.Config, time.Duration, error) {
	fs := flag.NewFlagSet("ojserver", flag.ContinueOnError)
	fs.SetOutput(errOut)
	cfg := server.Config{MaxConcurrent: server.DefaultMaxConcurrent, QueueDepth: server.DefaultQueueDepth}
	server.RegisterProcessFlags(fs, &cfg)
	fs.StringVar(&cfg.Addr, "addr", "127.0.0.1:7432", "TCP address for the query protocol")
	fs.IntVar(&cfg.MaxConcurrent, "max-concurrent", cfg.MaxConcurrent, "concurrent query slots")
	fs.IntVar(&cfg.QueueDepth, "queue-depth", cfg.QueueDepth, "admission wait-queue bound (negative disables waiting)")
	server.BytesVar(fs, &cfg.PoolBytes, "pool", "process-wide memory pool, e.g. 64MB (empty = unlimited)")
	server.BytesVar(fs, &cfg.SpillPoolBytes, "spill-pool", "process-wide spill pool, e.g. 256MB (empty = unlimited)")
	server.BytesVar(fs, &cfg.QueryMemBytes, "query-mem", "default per-query memory grant, e.g. 8MB (empty = ungoverned)")
	server.BytesVar(fs, &cfg.QuerySpillBytes, "query-spill", "per-query spill grant when spill is on (empty = ungoverned)")
	fs.DurationVar(&cfg.Timeout, "timeout", 0, "default per-query deadline, admission wait included (0 = none)")
	fs.BoolVar(&cfg.Spill, "spill", false, "default spill-to-disk mode for new sessions")
	fs.Func("strategy", "default planner strategy: dp, yannakakis or auto (dp when unset)", func(v string) (err error) {
		cfg.Strategy, err = server.ParseStrategy(v)
		return err
	})
	fs.Func("batch-size", "rows per execution batch: N or default", func(v string) (err error) {
		cfg.BatchSize, err = server.ParseBatchSize(v)
		return err
	})
	fs.StringVar(&cfg.SnapshotPath, "restore", "", "catalog snapshot (.fjdb) to restore at startup")
	fs.DurationVar(&cfg.IdleTimeout, "idle-timeout", 0, "disconnect idle sessions (0 = default 5m, negative = off)")
	fs.DurationVar(&cfg.WriteTimeout, "write-timeout", 0, "per-response write deadline (0 = default 30s, negative = off)")
	var maxLine int64
	server.BytesVar(fs, &maxLine, "max-line", "longest accepted protocol line, e.g. 1MB (empty = default)")
	fs.DurationVar(&cfg.ShedWait, "shed-wait", 0, "shed load when smoothed queue wait exceeds this (0 = off)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-drain bound on SIGTERM")
	chaosSeed := fs.Int64("chaos-seed", 0, "dev mode: seed for network fault injection (needs -chaos-rate)")
	chaosRate := fs.Float64("chaos-rate", 0, "dev mode: per-I/O fault probability in [0,1] (0 = off)")
	fs.DurationVar(&cfg.RuntimeSample, "runtime-metrics", 0, "background runtime/metrics sampling period (0 = scrape-time only)")
	if err := fs.Parse(args); err != nil {
		return cfg, 0, err
	}
	cfg.MaxLineBytes = int(maxLine)
	if *chaosRate > 0 {
		// Fault injection is a dev/test mode: every accepted connection
		// suffers seeded, replayable network faults.
		cfg.Chaos = &chaos.Config{Seed: *chaosSeed, Rate: *chaosRate}
	}
	return cfg, *drainTimeout, nil
}
