// Command ojshell is an interactive shell over the join/outerjoin
// engine. It is a line editor over an in-process server session: table,
// index, query, explain [analyze], prepare/execute and set go through
// the same lifecycle as a served query (admission, deadline, memory
// grant, plan cache, tracer). The shell itself only adds commands that
// touch local files or the process, and the paper's structures: the
// written-order reference evaluation, query graphs, the
// free-reorderability analysis and the implementing trees.
//
//	$ ojshell -metrics-addr 127.0.0.1:9090
//	oj> table R(a) = (1), (2)
//	oj> table S(a) = (2), (3)
//	oj> query R ->[R.a = S.a] S
//	oj> analyze R ->[R.a = S.a] S
package main

import (
	"flag"
	"fmt"
	"os"

	"freejoin/internal/server"
)

func main() {
	var cfg server.Config
	server.RegisterProcessFlags(flag.CommandLine, &cfg)
	flag.Parse()
	sh, err := NewShell(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ojshell:", err)
		os.Exit(1)
	}
	defer sh.Close()
	if sh.swept > 0 {
		fmt.Fprintf(os.Stderr, "ojshell: swept %d stale spill file(s)\n", sh.swept)
	}
	if sh.mon != nil {
		fmt.Fprintf(os.Stderr, "ojshell: metrics on %s\n", sh.mon.Addr())
	}
	fmt.Println("freejoin shell — type help for commands, quit to exit")
	if err := sh.Run(os.Stdin, true); err != nil {
		sh.Close()
		fmt.Fprintln(os.Stderr, "ojshell:", err)
		os.Exit(1)
	}
}
