// Command reorder analyzes a join/outerjoin expression: it derives the
// query graph, checks the free-reorderability theorem's preconditions,
// counts and optionally lists the implementing trees, and can emit the
// graph in Graphviz dot format.
//
// Usage:
//
//	reorder -q "(R -[R.a = S.a] S) ->[S.a = T.a] T" [-all] [-dot] [-modulo]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"freejoin/internal/core"
	"freejoin/internal/expr"
	"freejoin/internal/parse"
)

func main() {
	var (
		query  = flag.String("q", "", "expression to analyze (required)")
		all    = flag.Bool("all", false, "list every implementing tree")
		dot    = flag.Bool("dot", false, "print the query graph in Graphviz dot syntax")
		modulo = flag.Bool("modulo", true, "count trees modulo reversal")
		limit  = flag.Int64("limit", 100000, "maximum trees to list with -all")
	)
	flag.Parse()
	if *query == "" {
		fmt.Fprintln(os.Stderr, "usage: reorder -q \"(R -[R.a = S.a] S) ->[S.a = T.a] T\" [-all] [-dot] [-modulo=false] [-limit N]")
		os.Exit(2)
	}
	if err := run(os.Stdout, *query, *all, *dot, *modulo, *limit); err != nil {
		fmt.Fprintln(os.Stderr, "reorder:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, query string, all, dot, modulo bool, limit int64) error {
	q, err := parse.Expr(query)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "expression:", q.StringWithPreds())

	analysis, err := core.Analyze(q)
	if err != nil {
		return fmt.Errorf("graph undefined: %w", err)
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, analysis.Graph)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "analysis:", analysis)

	count, err := expr.CountITs(analysis.Graph, modulo)
	if err != nil {
		return err
	}
	suffix := ""
	if modulo {
		suffix = " (modulo reversal)"
	}
	fmt.Fprintf(w, "implementing trees: %d%s\n", count, suffix)

	if all {
		if count > limit {
			return fmt.Errorf("%d trees exceed -limit %d", count, limit)
		}
		its, err := expr.EnumerateITs(analysis.Graph, modulo)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		for i, it := range its {
			marker := " "
			if it.Equal(q) {
				marker = "*"
			}
			fmt.Fprintf(w, "%s %3d: %s\n", marker, i+1, it)
		}
	}
	if dot {
		fmt.Fprintln(w)
		fmt.Fprint(w, analysis.Graph.DOT())
	}
	return nil
}
