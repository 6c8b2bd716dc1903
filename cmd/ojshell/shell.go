package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"freejoin/internal/core"
	"freejoin/internal/expr"
	"freejoin/internal/graph"
	"freejoin/internal/obs"
	"freejoin/internal/parse"
	"freejoin/internal/server"
	"freejoin/internal/storage"
)

// Shell is a line editor over one server session on an in-process core.
// Commands the session knows are forwarded to it; the shell answers only
// the commands below, which touch local files or the process, or inspect
// the paper's structures without planning anything.
type Shell struct {
	core  *server.Core
	sess  *server.Session
	out   io.Writer
	mon   *obs.Server // the -metrics-addr server, nil when off
	swept int         // stale spill files reclaimed at startup
}

const shellHelp = `shell commands (local files, the process and the paper's structures):
  load NAME file.csv / save NAME file.csv     import / export a table as CSV
  dump file.fjdb / restore file.fjdb          snapshot / replace the whole catalog
  eval    EXPR                                evaluate in written order (reference algebra)
  graph   EXPR                                show the query graph
  analyze EXPR                                free-reorderability analysis
  trees   EXPR                                list the implementing trees (* = as written)
  metrics                                     print the metrics in Prometheus text form
  trace on FILE | trace off                   export query spans as Chrome trace JSON

expressions:  (R -[R.a = S.a] S) ->[S.b = T.b] T
operators:    -[p] join,  ->[p] left outerjoin,  <-[p] right outerjoin
restriction:  sigma[R.a = 1](R ->[R.a = S.a] S)
`

// NewShell builds the core for cfg (the process-level flags), sweeps its
// spill directory, starts its monitoring server when cfg asks for one,
// and returns a shell writing to out. Slow queries are reported on out.
func NewShell(cfg server.Config, out io.Writer) (*Shell, error) {
	c, err := server.NewCore(cfg)
	if err != nil {
		return nil, err
	}
	s := &Shell{core: c, sess: server.NewSession(c), out: out, swept: c.SweepSpill()}
	c.Tracer().Slow().SetText(out)
	if s.mon, err = c.StartMonitor(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close stops the monitoring server and flushes the trace and
// slow-query files.
func (s *Shell) Close() error {
	if s.mon != nil {
		s.mon.Close()
		s.mon = nil
	}
	s.core.Tracer().Slow().CloseJSONFile()
	return s.core.Tracer().Disable()
}

// Run processes commands line by line until EOF or quit.
func (s *Shell) Run(in io.Reader, prompt bool) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		if prompt {
			fmt.Fprint(s.out, "oj> ")
		}
		if !sc.Scan() {
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		if line == `\q` || line == "quit" || line == "exit" {
			return nil
		}
		if err := s.Exec(line); err != nil {
			fmt.Fprintln(s.out, "error:", err)
		}
	}
}

// Exec runs one command: a shell command here, anything else in the
// session, printing its output (an aborted explain analyze still has
// its partial tree) and returning its error.
func (s *Shell) Exec(line string) error {
	cmd, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)
	cat := s.core.Catalog()
	switch strings.ToLower(cmd) {
	case "load":
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			return errors.New("usage: load NAME file.csv")
		}
		t, err := cat.LoadCSVFile(parts[0], parts[1])
		if err != nil {
			return err
		}
		return s.printf("table %s: %d rows from %s\n", parts[0], t.Relation().Len(), parts[1])
	case "save":
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			return errors.New("usage: save NAME file.csv")
		}
		if err := cat.SaveCSVFile(parts[0], parts[1]); err != nil {
			return err
		}
		return s.printf("wrote %s\n", parts[1])
	case "dump":
		if rest == "" {
			return errors.New("usage: dump file.fjdb")
		}
		if err := storage.SaveCatalogFile(rest, cat); err != nil {
			return err
		}
		return s.printf("snapshot written to %s\n", rest)
	case "restore":
		if rest == "" {
			return errors.New("usage: restore file.fjdb")
		}
		restored, err := storage.LoadCatalogFile(rest)
		if err != nil {
			return err
		}
		cat.Replace(restored)
		return s.printf("restored %d tables from %s\n", len(cat.Tables()), rest)
	case "metrics":
		return obs.Default.WritePrometheus(s.out)
	case "trace":
		arg, path, _ := strings.Cut(rest, " ")
		path = strings.TrimSpace(path)
		switch {
		case arg == "on" && path != "":
			s.core.Tracer().Enable(path)
			return s.printf("tracing to %s (load in chrome://tracing or ui.perfetto.dev)\n", path)
		case rest == "off":
			if err := s.core.Tracer().Disable(); err != nil {
				return err
			}
			return s.printf("tracing off\n")
		}
		return errors.New("usage: trace on FILE | trace off")
	case "eval":
		q, err := parse.Expr(rest)
		if err != nil {
			return err
		}
		out, err := q.Eval(cat)
		if err != nil {
			return err
		}
		return s.printf("%s", out)
	case "graph":
		_, g, err := parseGraph(rest)
		if err != nil {
			return err
		}
		return s.printf("%s", g)
	case "analyze":
		q, err := parse.Expr(rest)
		if err != nil {
			return err
		}
		a, err := core.Analyze(q)
		if err != nil {
			return err
		}
		return s.printf("%s\n", a)
	case "trees":
		return s.trees(rest)
	}
	resp := s.sess.SafeExec(context.Background(), line)
	if resp.Output != "" {
		fmt.Fprintln(s.out, strings.TrimRight(resp.Output, "\n"))
	}
	if strings.EqualFold(cmd, "help") {
		fmt.Fprint(s.out, "\n"+shellHelp)
	}
	if !resp.OK {
		return errors.New(resp.Error)
	}
	return nil
}

// printf writes to the shell's output; a command's answer is its last
// statement, so it returns nil.
func (s *Shell) printf(format string, args ...any) error {
	fmt.Fprintf(s.out, format, args...)
	return nil
}

func parseGraph(src string) (*expr.Node, *graph.Graph, error) {
	q, err := parse.Expr(src)
	if err != nil {
		return nil, nil, err
	}
	g, err := expr.GraphOf(q)
	return q, g, err
}

// trees lists the implementing trees of an expression's graph modulo
// reversal, marking the one as written.
func (s *Shell) trees(src string) error {
	q, g, err := parseGraph(src)
	if err != nil {
		return err
	}
	n, err := expr.CountITs(g, true)
	if err != nil {
		return err
	}
	if n > 200 {
		return fmt.Errorf("%d trees; refusing to list more than 200", n)
	}
	its, err := expr.EnumerateITs(g, true)
	if err != nil {
		return err
	}
	for i, it := range its {
		marker := " "
		if it.Equal(q) {
			marker = "*"
		}
		fmt.Fprintf(s.out, "%s %3d: %s\n", marker, i+1, it)
	}
	return nil
}
