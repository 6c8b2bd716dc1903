package server

import (
	"flag"

	"freejoin/internal/parse"
)

// RegisterProcessFlags registers on fs the process-level settings that
// every front end over a Core shares, parsed straight into cfg: the
// monitoring server, the slow-query log, the spill directory and the
// shared plan cache's capacity. ojserver and ojshell both call it, so a
// new process-level knob is added here once.
func RegisterProcessFlags(fs *flag.FlagSet, cfg *Config) {
	fs.StringVar(&cfg.MetricsAddr, "metrics-addr", cfg.MetricsAddr, "HTTP /metrics, /debug/queries, /healthz address (off when empty)")
	fs.BoolVar(&cfg.Pprof, "pprof", cfg.Pprof, "mount /debug/pprof on the metrics address (needs -metrics-addr)")
	fs.DurationVar(&cfg.SlowQuery, "slow-query", cfg.SlowQuery, "slow-query threshold (0 = off)")
	fs.StringVar(&cfg.SlowQueryLog, "slow-query-log", cfg.SlowQueryLog, "slow-query JSONL file, size-capped with rotation (empty = off)")
	BytesVar(fs, &cfg.SlowQueryLogMaxBytes, "slow-query-log-max", "slow-query log size cap before rotation, e.g. 64MB (empty = default)")
	fs.StringVar(&cfg.SpillDir, "spill-dir", cfg.SpillDir, "spill run-file directory, swept of stale files at startup (empty = OS temp dir)")
	fs.IntVar(&cfg.PlanCache, "plan-cache", cfg.PlanCache, "shared plan-cache capacity (0 = default, negative = off)")
}

// BytesVar registers a byte-size flag ("64MB", "8KB" or a plain count)
// that parses with parse.Bytes into *p.
func BytesVar(fs *flag.FlagSet, p *int64, name, usage string) {
	fs.Func(name, usage, func(v string) (err error) {
		*p, err = parse.Bytes(v)
		return err
	})
}
